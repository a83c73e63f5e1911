package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/ramp-sim/ramp/internal/stats"
)

// This file relaxes the SOFR model's second assumption. SOFR (§2) treats
// every mechanism as having a constant failure rate — an exponential
// lifetime distribution — which the paper itself calls "clearly
// inaccurate: a typical wear-out failure mechanism will have a low failure
// rate at the beginning of the component's lifetime and the value will
// grow as the component ages". The Monte Carlo machinery here keeps
// RAMP's per-structure, per-mechanism average rates but lets each
// (structure, mechanism) lifetime follow a wear-out distribution with the
// same mean, and estimates the processor lifetime as the minimum across
// the series-failure system. With exponential marginals it converges to
// the SOFR analytic MTTF, quantifying exactly how much the constant-rate
// assumption distorts lifetime estimates.

// Distribution models a lifetime distribution parameterised by its mean.
type Distribution interface {
	// Sample draws one lifetime with the given mean from rng.
	Sample(rng *rand.Rand, mean float64) float64
	// Name identifies the distribution for reports.
	Name() string
}

// Exponential is the SOFR assumption: constant failure rate.
type Exponential struct{}

var _ Distribution = Exponential{}

// Sample draws an exponential lifetime with the given mean.
func (Exponential) Sample(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// Name returns "exponential".
func (Exponential) Name() string { return "exponential" }

// Quantile returns the analytic p-th quantile (0 < p < 1) of the
// exponential lifetime with the given mean: −mean·ln(1−p).
func (Exponential) Quantile(mean, p float64) float64 {
	return -mean * math.Log(1-p)
}

// Weibull models wear-out: with Shape > 1 the hazard rate grows with age,
// the qualitative behaviour the paper says real mechanisms have. Shape = 1
// degenerates to the exponential.
type Weibull struct {
	// Shape is the Weibull slope β (>1 for wear-out; JEDEC-style analyses
	// of EM and TDDB typically fit slopes between 1.5 and 3).
	Shape float64
}

var _ Distribution = Weibull{}

// Sample draws a Weibull lifetime with the given mean via inverse-CDF.
func (w Weibull) Sample(rng *rand.Rand, mean float64) float64 {
	if w.Shape <= 0 {
		return math.NaN()
	}
	// Scale so the mean equals the requested mean: mean = λ·Γ(1+1/β).
	scale := mean / math.Gamma(1+1/w.Shape)
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/w.Shape)
}

// Name returns a slope-qualified label.
func (w Weibull) Name() string { return fmt.Sprintf("weibull(β=%.2g)", w.Shape) }

// Validate rejects non-positive or non-finite shapes.
func (w Weibull) Validate() error {
	if !(w.Shape > 0) || math.IsInf(w.Shape, 1) {
		return fmt.Errorf("core: weibull shape must be a positive finite number, got %v", w.Shape)
	}
	return nil
}

// Quantile returns the analytic p-th quantile (0 < p < 1) of the Weibull
// lifetime with the given mean: λ·(−ln(1−p))^(1/β), λ = mean/Γ(1+1/β).
func (w Weibull) Quantile(mean, p float64) float64 {
	scale := mean / math.Gamma(1+1/w.Shape)
	return scale * math.Pow(-math.Log(1-p), 1/w.Shape)
}

// Lognormal is the classical electromigration lifetime distribution
// (JEDEC JEP122): log-lifetimes are normal with shape parameter Sigma.
type Lognormal struct {
	// Sigma is the log-standard deviation (typically 0.3–0.7 for EM).
	Sigma float64
}

var _ Distribution = Lognormal{}

// Sample draws a lognormal lifetime with the given mean.
func (l Lognormal) Sample(rng *rand.Rand, mean float64) float64 {
	if l.Sigma < 0 {
		return math.NaN()
	}
	// mean = exp(µ + σ²/2) → µ = ln(mean) − σ²/2.
	mu := math.Log(mean) - float64(l.Sigma*l.Sigma/2)
	return math.Exp(mu + float64(l.Sigma*rng.NormFloat64()))
}

// Name returns a sigma-qualified label.
func (l Lognormal) Name() string { return fmt.Sprintf("lognormal(σ=%.2g)", l.Sigma) }

// Validate rejects non-positive or non-finite sigmas.
func (l Lognormal) Validate() error {
	if !(l.Sigma > 0) || math.IsInf(l.Sigma, 1) {
		return fmt.Errorf("core: lognormal sigma must be a positive finite number, got %v", l.Sigma)
	}
	return nil
}

// Quantile returns the analytic p-th quantile (0 < p < 1) of the lognormal
// lifetime with the given mean: exp(µ + σ·Φ⁻¹(p)), µ = ln(mean) − σ²/2.
func (l Lognormal) Quantile(mean, p float64) float64 {
	mu := math.Log(mean) - float64(l.Sigma*l.Sigma/2)
	return math.Exp(mu + l.Sigma*stats.NormalQuantile(p))
}

// LifetimeModel assigns a lifetime distribution to each failure
// mechanism: the paper's four through the fixed Dist array, registry
// mechanisms beyond them through the name-keyed Extra map, and any
// mechanism neither covers through Fallback.
type LifetimeModel struct {
	Dist [NumMechanisms]Distribution
	// Extra assigns distributions to registry mechanisms outside the
	// paper's four, keyed by canonical mechanism name.
	Extra map[string]Distribution
	// Fallback covers mechanisms with no explicit assignment (future
	// registry additions), keeping name resolution total.
	Fallback Distribution
}

// DistFor resolves the distribution for one mechanism by canonical name.
func (m LifetimeModel) DistFor(name string) Distribution {
	if slot, ok := LegacySlot(name); ok && m.Dist[slot] != nil {
		return m.Dist[slot]
	}
	if d, ok := m.Extra[name]; ok {
		return d
	}
	return m.Fallback
}

// SOFRLifetimes returns the SOFR assumption: exponential everywhere
// (registry mechanisms included, through the fallback).
func SOFRLifetimes() LifetimeModel {
	var m LifetimeModel
	for i := range m.Dist {
		m.Dist[i] = Exponential{}
	}
	m.Fallback = Exponential{}
	return m
}

// WearOutLifetimes returns a JEDEC-flavoured wear-out assignment:
// lognormal EM, Weibull SM and TC (fatigue), a steep Weibull for TDDB
// (thin oxides have slopes well above 1 at end of life), and Weibull
// slopes for the registry mechanisms (β=2 aging for NBTI/HCI and for
// rainflow-counted cycling fatigue, after SDTA's Weibull β).
func WearOutLifetimes() LifetimeModel {
	var m LifetimeModel
	m.Dist[EM] = Lognormal{Sigma: 0.5}
	m.Dist[SM] = Weibull{Shape: 2.0}
	m.Dist[TDDB] = Weibull{Shape: 1.8}
	m.Dist[TC] = Weibull{Shape: 2.35}
	m.Extra = map[string]Distribution{
		MechNBTI:       Weibull{Shape: 2.0},
		MechHCI:        Weibull{Shape: 2.0},
		MechTCRainflow: Weibull{Shape: 2.0},
	}
	m.Fallback = Weibull{Shape: 2.0}
	return m
}

// Validate checks that every mechanism has a distribution with valid
// parameters. Distributions that implement Validate() error (Weibull,
// Lognormal) are checked for non-positive shapes/sigmas; the error names
// the offending mechanism.
func (m LifetimeModel) Validate() error {
	for i, d := range m.Dist {
		if d == nil {
			return fmt.Errorf("core: no lifetime distribution for %v", Mechanism(i))
		}
		if err := validateDist(d, Mechanism(i).String()); err != nil {
			return err
		}
	}
	for name, d := range m.Extra {
		if d == nil {
			return fmt.Errorf("core: nil lifetime distribution for %s", name)
		}
		if err := validateDist(d, name); err != nil {
			return err
		}
	}
	if m.Fallback != nil {
		if err := validateDist(m.Fallback, "fallback"); err != nil {
			return err
		}
	}
	return nil
}

// validateDist applies a distribution's own Validate when it has one.
func validateDist(d Distribution, owner string) error {
	if v, ok := d.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("core: invalid %s distribution for %s: %w", d.Name(), owner, err)
		}
	}
	return nil
}

// Canonical lifetime-model names accepted by LifetimeModelByName and by
// the MC study API.
const (
	ModelSOFR    = "sofr"
	ModelWearOut = "wearout"
)

// LifetimeModelByName resolves a model name to its LifetimeModel:
// "sofr" (alias "exponential") → SOFRLifetimes, "wearout" (alias
// "wear-out") → WearOutLifetimes.
func LifetimeModelByName(name string) (LifetimeModel, error) {
	switch name {
	case ModelSOFR, "exponential":
		return SOFRLifetimes(), nil
	case ModelWearOut, "wear-out":
		return WearOutLifetimes(), nil
	default:
		return LifetimeModel{}, fmt.Errorf("core: unknown lifetime model %q (want %q or %q)", name, ModelSOFR, ModelWearOut)
	}
}

// CanonicalModelName maps model aliases onto the canonical names used in
// cache keys and reports; unknown names pass through for Validate to
// reject.
func CanonicalModelName(name string) string {
	switch name {
	case "exponential":
		return ModelSOFR
	case "wear-out":
		return ModelWearOut
	default:
		return name
	}
}

// LifetimeEstimate summarises a Monte Carlo lifetime experiment.
type LifetimeEstimate struct {
	// MTTFYears is the Monte Carlo mean processor lifetime.
	MTTFYears float64
	// MedianYears and P5Years, P95Years describe the lifetime spread —
	// quantities SOFR cannot produce.
	MedianYears, P5Years, P95Years float64
	// SOFRYears is the analytic SOFR MTTF of the same breakdown, for
	// comparison.
	SOFRYears float64
	// Samples is the number of Monte Carlo trials.
	Samples int
}

// MonteCarloLifetime estimates the processor lifetime distribution for a
// calibrated FIT breakdown under the given per-mechanism lifetime
// distributions. Each trial draws one lifetime per (structure, mechanism)
// with mean 10⁹/FIT hours and takes the minimum (series failure system).
func MonteCarloLifetime(b Breakdown, model LifetimeModel, samples int, seed int64) (LifetimeEstimate, error) {
	if samples < 1 {
		return LifetimeEstimate{}, fmt.Errorf("core: need at least 1 sample, got %d", samples)
	}
	sampler, err := NewLifetimeSampler(b, model)
	if err != nil {
		return LifetimeEstimate{}, err
	}
	// One shared stream across all trials preserves the historical draw
	// sequence of this entry point exactly; the batch-parallel MC study in
	// internal/sim uses per-replica splittable streams instead.
	rng := rand.New(rand.NewSource(seed))
	lifetimes := make([]float64, samples)
	var sum float64
	for i := range lifetimes {
		years := sampler.Sample(rng)
		lifetimes[i] = years
		sum += years
	}
	sort.Float64s(lifetimes)
	q := func(p float64) float64 {
		idx := int(p * float64(samples-1))
		return lifetimes[idx]
	}
	return LifetimeEstimate{
		MTTFYears:   sum / float64(samples),
		MedianYears: q(0.5),
		P5Years:     q(0.05),
		P95Years:    q(0.95),
		SOFRYears:   b.MTTFYears(),
		Samples:     samples,
	}, nil
}
