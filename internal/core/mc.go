package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/phys"
)

// Splittable replica streams. A Monte Carlo study draws one lifetime per
// (structure, mechanism) cell per replica; to make the result independent
// of how replicas are batched across workers, every (root seed, cell,
// replica) triple deterministically derives its own RNG stream. Workers
// can then evaluate any subset of replicas in any order and still produce
// byte-identical per-replica draws.

// SplitMix64 advances the SplitMix64 generator one step from state x and
// returns the mixed output. It is the standard finalizer from Steele,
// Lea & Flood, "Fast Splittable Pseudorandom Number Generators" (OOPSLA
// 2014), also used to seed xoshiro-family generators.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ReplicaSeed derives the RNG state for one (cell, replica) stream from a
// root seed. Distinct (root, cell, replica) triples map to well-separated
// states: each component is folded in through a full SplitMix64 round, so
// adjacent replicas share no low-bit structure.
func ReplicaSeed(root int64, cell, replica uint64) uint64 {
	s := SplitMix64(uint64(root))
	s = SplitMix64(s ^ cell)
	s = SplitMix64(s ^ replica)
	return s
}

// replicaSource is a SplitMix64-backed rand.Source64. It is reseeded once
// per replica via Reseed, giving each replica an independent stream while
// letting a worker reuse one *rand.Rand allocation across its whole batch.
type replicaSource struct {
	state uint64
}

var _ rand.Source64 = (*replicaSource)(nil)

func (s *replicaSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *replicaSource) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

func (s *replicaSource) Seed(seed int64) {
	s.state = uint64(seed)
}

// ReplicaRand is a reusable per-worker RNG. Seed positions it at the start
// of the (root, cell, replica) stream; Rand exposes the *rand.Rand view
// for Distribution.Sample. The standard library's Float64, ExpFloat64 and
// NormFloat64 keep no state beyond the source, so reseeding the source is
// equivalent to building a fresh rand.New per replica — without the
// allocation.
type ReplicaRand struct {
	src replicaSource
	rng *rand.Rand
}

// NewReplicaRand returns a ReplicaRand ready for Seed.
func NewReplicaRand() *ReplicaRand {
	r := &ReplicaRand{}
	r.rng = rand.New(&r.src)
	return r
}

// Seed positions the generator at the start of the (root, cell, replica)
// stream.
func (r *ReplicaRand) Seed(root int64, cell, replica uint64) {
	r.src.state = ReplicaSeed(root, cell, replica)
}

// Rand returns the *rand.Rand view over the current stream.
func (r *ReplicaRand) Rand() *rand.Rand { return r.rng }

// samplerCell is one positive-rate (structure, mechanism) entry of a
// breakdown: its resolved lifetime distribution and per-cell mean
// lifetime in hours, with the distribution's per-cell constants computed
// once. A draw from the constants is bit-identical to dist.Sample.
type samplerCell struct {
	kind      cellKind
	dist      Distribution
	meanHours float64
	// c1, c2 are the Weibull scale mean/Γ(1+1/β) and 1/β, or the
	// lognormal μ = ln(mean) − σ²/2 and σ.
	c1, c2 float64
}

// cellKind selects how a samplerCell draws.
type cellKind uint8

const (
	cellGeneric cellKind = iota // dist.Sample
	cellExponential
	cellWeibull
	cellLognormal
)

// newSamplerCell resolves a cell's draw and precomputes its constants with
// the same operations the distribution's Sample performs per draw.
func newSamplerCell(d Distribution, meanHours float64) samplerCell {
	c := samplerCell{dist: d, meanHours: meanHours}
	switch d := d.(type) {
	case Exponential:
		c.kind = cellExponential
	case Weibull:
		if d.Shape > 0 {
			c.kind = cellWeibull
			c.c1 = meanHours / math.Gamma(1+1/d.Shape)
			c.c2 = 1 / d.Shape
		}
	case Lognormal:
		if d.Sigma >= 0 {
			c.kind = cellLognormal
			c.c1 = math.Log(meanHours) - float64(d.Sigma*d.Sigma/2)
			c.c2 = d.Sigma
		}
	}
	return c
}

// sample draws the cell's lifetime in hours.
func (c *samplerCell) sample(rng *rand.Rand) float64 {
	switch c.kind {
	case cellExponential:
		return rng.ExpFloat64() * c.meanHours
	case cellWeibull:
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return c.c1 * math.Pow(-math.Log(u), c.c2)
	case cellLognormal:
		return math.Exp(c.c1 + float64(c.c2*rng.NormFloat64()))
	default:
		return c.dist.Sample(rng, c.meanHours)
	}
}

// LifetimeSampler draws series-system processor lifetimes for one
// calibrated FIT breakdown under a per-mechanism lifetime model. It
// precomputes the positive-rate cells once so each replica pays only the
// per-cell sampling cost. A LifetimeSampler is immutable after
// NewLifetimeSampler and safe for concurrent use; callers supply the rng.
type LifetimeSampler struct {
	cells []samplerCell
	model LifetimeModel
}

// NewLifetimeSampler validates the model and collects the positive-rate
// cells of b in deterministic order: the fixed-slot (structure, mechanism)
// cells first — preserving the historical draw sequence for the default
// mechanism set exactly — then any name-keyed Extra cells in sorted
// mechanism-name, structure order.
func NewLifetimeSampler(b Breakdown, model LifetimeModel) (*LifetimeSampler, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	var cells []samplerCell
	for s := 0; s < microarch.NumStructures; s++ {
		for m := 0; m < NumMechanisms; m++ {
			fit := b.ByStructMech[s][m]
			if fit <= 0 {
				continue
			}
			cells = append(cells, newSamplerCell(model.Dist[m], phys.MTTFHoursFromFIT(fit)))
		}
	}
	extraNames := make([]string, 0, len(b.Extra))
	for name := range b.Extra {
		extraNames = append(extraNames, name)
	}
	sort.Strings(extraNames)
	for _, name := range extraNames {
		d := model.DistFor(name)
		if d == nil {
			return nil, fmt.Errorf("core: no lifetime distribution for mechanism %s (model has no fallback)", name)
		}
		arr := b.Extra[name]
		for s := 0; s < microarch.NumStructures; s++ {
			fit := arr[s]
			if fit <= 0 {
				continue
			}
			cells = append(cells, newSamplerCell(d, phys.MTTFHoursFromFIT(fit)))
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("core: breakdown has no positive failure rates")
	}
	return &LifetimeSampler{cells: cells, model: model}, nil
}

// Cells returns the number of positive-rate (structure, mechanism) cells.
func (ls *LifetimeSampler) Cells() int { return len(ls.cells) }

// Sample draws one processor lifetime in years: one draw per positive-rate
// cell with the cell's mean, minimum across the series system.
func (ls *LifetimeSampler) Sample(rng *rand.Rand) float64 {
	minLife := math.Inf(1)
	for i := range ls.cells {
		l := ls.cells[i].sample(rng)
		if l < minLife {
			minLife = l
		}
	}
	return minLife / phys.HoursPerYear
}
