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
	// a is the Weibull key factor c1^β (see key).
	a float64
	// group is the cell's index in LifetimeSampler.groups, or −1 for a
	// cell whose lifetime is computed as it is drawn.
	group int
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
	c := samplerCell{dist: d, meanHours: meanHours, group: -1}
	switch d := d.(type) {
	case Exponential:
		c.kind = cellExponential
	case Weibull:
		if d.Shape > 0 {
			c.kind = cellWeibull
			c.c1 = meanHours / math.Gamma(1+1/d.Shape)
			c.c2 = 1 / d.Shape
			c.a = math.Pow(c.c1, d.Shape)
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
	case cellWeibull, cellLognormal:
		return c.lifetime(c.draw(rng))
	default:
		return c.dist.Sample(rng, c.meanHours)
	}
}

// draw takes a Weibull or lognormal cell's variate from rng: −ln u for a
// Weibull cell, the log-lifetime μ+σz for a lognormal one.
func (c *samplerCell) draw(rng *rand.Rand) float64 {
	if c.kind == cellLognormal {
		return c.c1 + float64(c.c2*rng.NormFloat64())
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u)
}

// lifetime maps a draw to the cell's lifetime in hours.
func (c *samplerCell) lifetime(d float64) float64 {
	if c.kind == cellLognormal {
		return math.Exp(d)
	}
	return c.c1 * math.Pow(d, c.c2)
}

// key maps a draw to a number that increases with the cell's lifetime and
// is comparable across one shape group without Pow or Exp: the
// log-lifetime itself for a lognormal cell, and c1^β·(−ln u), the β-th
// power of the lifetime, for a Weibull cell.
func (c *samplerCell) key(d float64) float64 {
	if c.kind == cellLognormal {
		return d
	}
	return c.a * d
}

// Shape groups. A replica's lifetime is the minimum over its cells, so a
// group of cells whose keys order their lifetimes needs the lifetime only
// of its smallest-key cell. Keys carry the rounding of one Pow and one
// multiply, and Log, Exp and Pow are accurate to a few ulp, so a cell
// whose key exceeds the group's smallest by more than tieMargin (relative
// for Weibull keys, absolute for log-lifetimes, ~10⁶ times those errors)
// has the larger computed lifetime too; every cell within the margin is
// computed, so the minimum is bit-identical to computing all of them.
const (
	tieMargin = 1e-9
	// maxGroupShape bounds the Weibull β of a grouped cell: Pow(c1, β)'s
	// error grows with β, and must stay far inside tieMargin.
	maxGroupShape = 100
	// minNegLogU and maxNegLogU bound −ln u for every u rand.Float64
	// returns, u ∈ [2⁻⁶³, 1−2⁻⁵³].
	minNegLogU = 1.1102230246251565e-16
	maxNegLogU = 43.66827237527655
	// maxAbsNormal bounds |z| for every z rand.NormFloat64 returns.
	maxAbsNormal = 17
)

// sampleGroup is a set of cells whose keys compare: Weibull cells with one
// 1/β, or all lognormal cells.
type sampleGroup struct {
	kind  cellKind
	c2    float64
	cells []int
}

// groupable reports whether a cell's key and lifetime, and Pow's
// intermediate l^(1/β), are normal numbers far from the range limits for
// every draw, where ulp-level error bounds hold. Other cells are computed
// as they are drawn.
func (c *samplerCell) groupable() bool {
	normal := func(xs ...float64) bool {
		for _, x := range xs {
			if !(x >= 1e-290 && x <= 1e290) {
				return false
			}
		}
		return true
	}
	switch c.kind {
	case cellWeibull:
		lo, hi := math.Pow(minNegLogU, c.c2), math.Pow(maxNegLogU, c.c2)
		return 1/c.c2 <= maxGroupShape &&
			normal(c.c1, c.a, c.a*minNegLogU, c.a*maxNegLogU, lo, hi, c.c1*lo, c.c1*hi)
	case cellLognormal:
		return math.Abs(c.c1)+float64(c.c2*maxAbsNormal) <= 700
	}
	return false
}

// LifetimeSampler draws series-system processor lifetimes for one
// calibrated FIT breakdown under a per-mechanism lifetime model. It
// precomputes the positive-rate cells and their shape groups once so each
// replica pays only the per-cell draw and, per group, one lifetime. A
// LifetimeSampler is immutable after NewLifetimeSampler and safe for
// concurrent use; callers supply the rng.
type LifetimeSampler struct {
	cells  []samplerCell
	groups []sampleGroup
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
	return groupCells(cells), nil
}

// groupCells builds the sampler over cells, in draw order, assigning each
// groupable cell to its shape group.
func groupCells(cells []samplerCell) *LifetimeSampler {
	ls := &LifetimeSampler{cells: cells}
	for i := range cells {
		c := &cells[i]
		if !c.groupable() {
			continue
		}
		c.group = len(ls.groups)
		for g, grp := range ls.groups {
			if grp.kind == c.kind && (c.kind == cellLognormal || grp.c2 == c.c2) {
				c.group = g
				break
			}
		}
		if c.group == len(ls.groups) {
			ls.groups = append(ls.groups, sampleGroup{kind: c.kind, c2: c.c2})
		}
		ls.groups[c.group].cells = append(ls.groups[c.group].cells, i)
	}
	return ls
}

// Cells returns the number of positive-rate (structure, mechanism) cells.
func (ls *LifetimeSampler) Cells() int { return len(ls.cells) }

// Sample draws one processor lifetime in years: one draw per positive-rate
// cell with the cell's mean, minimum across the series system. Every cell
// draws from rng in cell order, so the stream is the one a per-cell loop
// consumes; a grouped cell's lifetime is computed only when its key ties
// its group's smallest (see tieMargin).
func (ls *LifetimeSampler) Sample(rng *rand.Rand) float64 {
	var stack [64]float64
	var draws []float64
	if n := len(ls.cells); n <= len(stack) {
		draws = stack[:n]
	} else {
		draws = make([]float64, n)
	}
	minLife := math.Inf(1)
	for i := range ls.cells {
		c := &ls.cells[i]
		if c.group >= 0 {
			draws[i] = c.draw(rng)
		} else if l := c.sample(rng); l < minLife {
			minLife = l
		}
	}
	for g := range ls.groups {
		grp := &ls.groups[g]
		lo := math.Inf(1)
		for _, i := range grp.cells {
			lo = min(lo, ls.cells[i].key(draws[i]))
		}
		limit := lo + tieMargin
		if grp.kind == cellWeibull {
			limit = lo * (1 + tieMargin)
		}
		for _, i := range grp.cells {
			c := &ls.cells[i]
			if c.key(draws[i]) <= limit {
				if l := c.lifetime(draws[i]); l < minLife {
					minLife = l
				}
			}
		}
	}
	return minLife / phys.HoursPerYear
}
