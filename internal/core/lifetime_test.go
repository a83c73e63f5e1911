package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ramp-sim/ramp/internal/floorplan"
	"github.com/ramp-sim/ramp/internal/scaling"
)

func sampleMean(t *testing.T, d Distribution, mean float64, n int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var sum float64
	for i := 0; i < n; i++ {
		x := d.Sample(rng, mean)
		if x < 0 || math.IsNaN(x) {
			t.Fatalf("%s produced invalid lifetime %v", d.Name(), x)
		}
		sum += x
	}
	return sum / float64(n)
}

func TestDistributionsHaveRequestedMean(t *testing.T) {
	dists := []Distribution{
		Exponential{},
		Weibull{Shape: 1.0},
		Weibull{Shape: 2.0},
		Weibull{Shape: 3.5},
		Lognormal{Sigma: 0.3},
		Lognormal{Sigma: 0.7},
	}
	const mean = 250_000.0 // hours, ≈ 28.5 years
	for _, d := range dists {
		got := sampleMean(t, d, mean, 200_000)
		if math.Abs(got/mean-1) > 0.02 {
			t.Errorf("%s sample mean %v, want %v ± 2%%", d.Name(), got, mean)
		}
	}
}

func TestWeibullShape1MatchesExponential(t *testing.T) {
	// β = 1 Weibull IS the exponential; compare variances via second
	// moments of samples.
	const mean = 100.0
	rng := rand.New(rand.NewSource(3))
	var sumsq float64
	const n = 200_000
	w := Weibull{Shape: 1}
	for i := 0; i < n; i++ {
		x := w.Sample(rng, mean)
		sumsq += x * x
	}
	// Exponential second moment = 2·mean².
	if got := sumsq / n; math.Abs(got/(2*mean*mean)-1) > 0.05 {
		t.Fatalf("Weibull(1) second moment %v, want %v", got, 2*mean*mean)
	}
}

func TestWearOutHasLowerSpreadThanExponential(t *testing.T) {
	// A wear-out distribution (β > 1) concentrates lifetimes around the
	// mean: its coefficient of variation is below the exponential's 1.
	rng := rand.New(rand.NewSource(5))
	cv := func(d Distribution) float64 {
		const n = 100_000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			x := d.Sample(rng, 100)
			sum += x
			sumsq += x * x
		}
		m := sum / n
		return math.Sqrt(sumsq/n-m*m) / m
	}
	if w, e := cv(Weibull{Shape: 2.35}), cv(Exponential{}); w >= e {
		t.Fatalf("wear-out CV %v not below exponential CV %v", w, e)
	}
}

func TestDistributionNames(t *testing.T) {
	if (Exponential{}).Name() != "exponential" {
		t.Error("exponential name wrong")
	}
	if (Weibull{Shape: 2}).Name() != "weibull(β=2)" {
		t.Errorf("weibull name = %s", Weibull{Shape: 2}.Name())
	}
	if (Lognormal{Sigma: 0.5}).Name() != "lognormal(σ=0.5)" {
		t.Errorf("lognormal name = %s", Lognormal{Sigma: 0.5}.Name())
	}
}

func TestLifetimeModelValidate(t *testing.T) {
	if err := SOFRLifetimes().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := WearOutLifetimes().Validate(); err != nil {
		t.Fatal(err)
	}
	var empty LifetimeModel
	if err := empty.Validate(); err == nil {
		t.Fatal("empty model accepted")
	}
}

// calibratedTestBreakdown builds a realistic ~4000-FIT breakdown.
func calibratedTestBreakdown(t *testing.T) Breakdown {
	t.Helper()
	e, err := NewEvaluator(DefaultParams(), ReferenceConstants(), scaling.Base(),
		floorplan.POWER4().Areas())
	if err != nil {
		t.Fatal(err)
	}
	af := [7]float64{0.15, 0.24, 0.15, 0.23, 0.13, 0.19, 0.06}
	var temps [7]float64
	for i := range temps {
		temps[i] = 350 + float64(i)
	}
	return e.Instant(af, temps, 1.3, 349)
}

func TestMonteCarloExponentialMatchesSOFR(t *testing.T) {
	// With exponential marginals, min of exponentials is exponential with
	// the summed rate — the Monte Carlo mean must converge to the SOFR
	// analytic MTTF.
	b := calibratedTestBreakdown(t)
	est, err := MonteCarloLifetime(b, SOFRLifetimes(), 100_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MTTFYears/est.SOFRYears-1) > 0.02 {
		t.Fatalf("exponential MC MTTF %v years vs SOFR %v, want ≤ 2%% apart",
			est.MTTFYears, est.SOFRYears)
	}
	// Exponential: median = ln2 · mean.
	if math.Abs(est.MedianYears/(est.MTTFYears*math.Ln2)-1) > 0.05 {
		t.Errorf("exponential median %v, want ln2·mean %v",
			est.MedianYears, est.MTTFYears*math.Ln2)
	}
}

func TestMonteCarloWearOutExceedsSOFR(t *testing.T) {
	// The paper's point about the SOFR assumption: wear-out mechanisms
	// have low early-life hazard, so the true expected lifetime of the
	// series system exceeds the constant-rate estimate.
	b := calibratedTestBreakdown(t)
	est, err := MonteCarloLifetime(b, WearOutLifetimes(), 50_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if est.MTTFYears <= est.SOFRYears {
		t.Fatalf("wear-out MC MTTF %v years not above SOFR %v",
			est.MTTFYears, est.SOFRYears)
	}
	// And the spread is tighter: the 5th percentile sits further from 0
	// relative to the mean than the exponential's (which is ~5%).
	if est.P5Years/est.MTTFYears < 0.10 {
		t.Errorf("wear-out P5/mean = %v, expected well above the exponential's 0.05",
			est.P5Years/est.MTTFYears)
	}
	if !(est.P5Years < est.MedianYears && est.MedianYears < est.P95Years) {
		t.Errorf("quantiles not ordered: %v %v %v", est.P5Years, est.MedianYears, est.P95Years)
	}
}

func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	b := calibratedTestBreakdown(t)
	a1, err := MonteCarloLifetime(b, WearOutLifetimes(), 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := MonteCarloLifetime(b, WearOutLifetimes(), 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("same seed must reproduce the estimate exactly")
	}
	a3, err := MonteCarloLifetime(b, WearOutLifetimes(), 2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a1.MTTFYears == a3.MTTFYears {
		t.Fatal("different seeds should differ")
	}
}

func TestMonteCarloRejections(t *testing.T) {
	b := calibratedTestBreakdown(t)
	if _, err := MonteCarloLifetime(b, LifetimeModel{}, 100, 1); err == nil {
		t.Error("empty lifetime model accepted")
	}
	if _, err := MonteCarloLifetime(b, SOFRLifetimes(), 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
	var zero Breakdown
	if _, err := MonteCarloLifetime(zero, SOFRLifetimes(), 100, 1); err == nil {
		t.Error("all-zero breakdown accepted")
	}
}

func TestMonteCarloScalesInverselyWithFIT(t *testing.T) {
	// Doubling every rate should roughly halve the MC lifetime.
	b := calibratedTestBreakdown(t)
	double := b.scale(2)
	e1, err := MonteCarloLifetime(b, SOFRLifetimes(), 40_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := MonteCarloLifetime(double, SOFRLifetimes(), 40_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e2.MTTFYears*2/e1.MTTFYears-1) > 0.05 {
		t.Fatalf("doubled-rate lifetime %v not half of %v", e2.MTTFYears, e1.MTTFYears)
	}
}

func TestDistributionSamplesAlwaysPositive(t *testing.T) {
	f := func(seed int64, meanRaw float64) bool {
		mean := math.Abs(meanRaw)
		if mean == 0 || math.IsInf(mean, 0) || math.IsNaN(mean) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		for _, d := range []Distribution{Exponential{}, Weibull{Shape: 2}, Lognormal{Sigma: 0.5}} {
			x := d.Sample(rng, mean)
			if x < 0 || math.IsNaN(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// wrappedWeibull is a Distribution the sampler knows nothing about, so its
// cells keep calling Sample.
type wrappedWeibull struct{ Weibull }

// TestSamplerCellMatchesSample: a cell's precomputed draw is bit-identical
// to its distribution's Sample on the same stream, for every distribution
// the sampler specialises and for one it does not.
func TestSamplerCellMatchesSample(t *testing.T) {
	for _, d := range []Distribution{
		Exponential{}, Weibull{Shape: 2}, Weibull{Shape: 1.8}, Weibull{Shape: 2.35},
		Weibull{Shape: 0.7}, Lognormal{Sigma: 0.5}, Lognormal{Sigma: 1.3},
		wrappedWeibull{Weibull{Shape: 2}},
	} {
		for _, mean := range []float64{1e-3, 1, 87_600, 3.3e7, 1e300} {
			c := newSamplerCell(d, mean)
			a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			for i := 0; i < 20_000; i++ {
				want, got := d.Sample(a, mean), c.sample(b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s, mean %g, draw %d: cell drew %v, Sample %v", d.Name(), mean, i, got, want)
				}
			}
		}
	}
}
