package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ramp-sim/ramp/internal/floorplan"
	"github.com/ramp-sim/ramp/internal/phys"
	"github.com/ramp-sim/ramp/internal/scaling"
)

// referenceSample is the per-cell loop that grouped evaluation replaced:
// every cell's lifetime from its distribution's own Sample, in cell order,
// minimum across the series system.
func referenceSample(ls *LifetimeSampler, rng *rand.Rand) float64 {
	minLife := math.Inf(1)
	for i := range ls.cells {
		if l := ls.cells[i].dist.Sample(rng, ls.cells[i].meanHours); l < minLife {
			minLife = l
		}
	}
	return minLife / phys.HoursPerYear
}

// checkSampleMatchesReference compares Sample with referenceSample bit for
// bit on the same per-replica streams.
func checkSampleMatchesReference(t *testing.T, name string, ls *LifetimeSampler, replicas int) {
	t.Helper()
	a, b := NewReplicaRand(), NewReplicaRand()
	for r := 0; r < replicas; r++ {
		a.Seed(11, 3, uint64(r))
		b.Seed(11, 3, uint64(r))
		want, got := referenceSample(ls, a.Rand()), ls.Sample(b.Rand())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s, replica %d: grouped Sample %v, per-cell loop %v", name, r, got, want)
		}
	}
}

// TestGroupedSampleMatchesPerCellLoop: grouped evaluation returns the
// per-cell loop's lifetime bit for bit, for every distribution the sampler
// specialises and one it does not, at means from 10⁻³ to 10³⁰⁰ hours, and
// for real breakdowns under both lifetime models and both mechanism sets.
func TestGroupedSampleMatchesPerCellLoop(t *testing.T) {
	dists := []Distribution{
		Exponential{}, Weibull{Shape: 0.7}, Weibull{Shape: 1}, Weibull{Shape: 1.8},
		Weibull{Shape: 2}, Weibull{Shape: 2.35}, Lognormal{Sigma: 0}, Lognormal{Sigma: 0.5},
		Lognormal{Sigma: 1.3}, wrappedWeibull{Weibull{Shape: 2}},
	}
	rng := rand.New(rand.NewSource(5))
	for _, mean := range []float64{1e-3, 1, 87_600, 3.3e7, 1e12, 1e300} {
		// Several cells per distribution at one scale, so each group's
		// minimum competes with the others'.
		var cells []samplerCell
		for _, d := range dists {
			for j := 0; j < 4; j++ {
				cells = append(cells, newSamplerCell(d, mean*(1+rng.Float64())))
			}
		}
		checkSampleMatchesReference(t, "mixture", groupCells(cells), 5_000)
	}

	tech := scaling.Base()
	for _, names := range [][]string{nil, allSevenMechanisms()} {
		set, err := ResolveMechanismSet(names)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluatorForSet(DefaultParams(), ReferenceConstants(), tech, floorplan.POWER4().Areas(), set)
		if err != nil {
			t.Fatal(err)
		}
		af, temps, vdd, dieAvg := typicalOperatingPoint()
		e.AccumulateInstant(af, temps, vdd, dieAvg, 1)
		e.AddConstantRate(MechTCRainflow, 3e-4)
		b := e.Average()
		for _, model := range []string{ModelSOFR, ModelWearOut} {
			lm, err := LifetimeModelByName(model)
			if err != nil {
				t.Fatal(err)
			}
			ls, err := NewLifetimeSampler(b, lm)
			if err != nil {
				t.Fatal(err)
			}
			if len(ls.groups) == 0 && model == ModelWearOut {
				t.Fatalf("%s %v: no shape groups; the grouped path is not exercised", model, names)
			}
			checkSampleMatchesReference(t, model, ls, 20_000)
		}
	}
}

// scriptedSource replays fixed Int63 values, so a test chooses each u that
// rand.Float64 returns (u = x/2⁶³).
type scriptedSource struct {
	xs []int64
	i  int
}

func (s *scriptedSource) Int63() int64 { x := s.xs[s.i]; s.i++; return x }
func (s *scriptedSource) Seed(int64)   {}

// TestGroupedSampleNearTies: two Weibull cells of one group whose true
// lifetimes are equal, so their computed lifetimes and keys differ only by
// rounding and often order differently. The tie margin must send both to
// the exact lifetime; without it this test fails.
func TestGroupedSampleNearTies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, beta := range []float64{0.7, 1, 1.8, 2, 2.35} {
		for trial := 0; trial < 5_000; trial++ {
			m1 := math.Pow(10, 12*rng.Float64()-3)
			c1 := newSamplerCell(Weibull{Shape: beta}, m1)
			c2 := newSamplerCell(Weibull{Shape: beta}, m1*(1+1e-6*rng.Float64()))
			u1 := 0.05 + 0.9*rng.Float64()
			// u2 gives cell 2 cell 1's lifetime: c1₂·l₂^(1/β) = c1₁·l₁^(1/β).
			l2 := -math.Log(u1) * math.Pow(c1.c1/c2.c1, beta)
			xs := []int64{int64(u1 * (1 << 63)), int64(math.Exp(-l2) * (1 << 63))}
			ls := groupCells([]samplerCell{c1, c2})
			if len(ls.groups) != 1 || len(ls.groups[0].cells) != 2 {
				t.Fatalf("β=%v mean %g: cells not grouped together", beta, m1)
			}
			want := referenceSample(ls, rand.New(&scriptedSource{xs: xs}))
			got := ls.Sample(rand.New(&scriptedSource{xs: xs}))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("β=%v mean %g trial %d: grouped Sample %v, per-cell loop %v", beta, m1, trial, got, want)
			}
		}
	}
}

// allSevenMechanisms names every built-in mechanism.
func allSevenMechanisms() []string {
	return []string{MechEM, MechSM, MechTDDB, MechTC, MechNBTI, MechHCI, MechTCRainflow}
}
