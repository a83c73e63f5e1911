package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Width returns Hi-Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// NormalQuantile returns the p-th quantile of the standard normal
// distribution (the inverse CDF Φ⁻¹), 0 < p < 1, using Acklam's rational
// approximation (relative error < 1.15e-9 across the whole domain). It
// panics only on NaN; out-of-range p returns ±Inf.
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p):
		return math.NaN()
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	}
	// Coefficients for the central and tail rational approximations. The
	// polynomials round every product (float64(...)) so that no
	// architecture fuses it with the following add (DESIGN §8.4).
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (float64((float64((float64((float64((float64(c[0]*q)+c[1])*q)+c[2])*q)+c[3])*q)+c[4])*q) + c[5]) /
			(float64((float64((float64((float64(d[0]*q)+d[1])*q)+d[2])*q)+d[3])*q) + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(float64((float64((float64((float64((float64(c[0]*q)+c[1])*q)+c[2])*q)+c[3])*q)+c[4])*q) + c[5]) /
			(float64((float64((float64((float64(d[0]*q)+d[1])*q)+d[2])*q)+d[3])*q) + 1)
	default:
		q := p - 0.5
		r := q * q
		return (float64((float64((float64((float64((float64(a[0]*r)+a[1])*r)+a[2])*r)+a[3])*r)+a[4])*r) + a[5]) * q /
			(float64((float64((float64((float64((float64(b[0]*r)+b[1])*r)+b[2])*r)+b[3])*r)+b[4])*r) + 1)
	}
}

// PercentileSorted returns the p-th percentile (0 ≤ p ≤ 100) of an
// already-sorted slice using linear interpolation between closest ranks.
// It is the allocation-free counterpart of Percentile for callers that
// already hold sorted data (e.g. Monte Carlo estimators).
func PercentileSorted(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := float64(rank) - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac), nil
}

// PercentileCISorted returns a distribution-free confidence interval for
// the p-th percentile (0 < p < 100) of the population underlying the
// already-sorted sample, at confidence level conf (0 < conf < 1). It uses
// the order-statistic method with the normal approximation to the
// binomial: the interval endpoints are the sample values at ranks
// n·q ± z·√(n·q·(1−q)), clamped to the sample range. For small n the
// interval degrades gracefully to the full sample range.
func PercentileCISorted(sorted []float64, p, conf float64) (Interval, error) {
	n := len(sorted)
	if n == 0 {
		return Interval{}, ErrEmpty
	}
	if p <= 0 || p >= 100 {
		return Interval{}, fmt.Errorf("stats: percentile %v outside (0,100)", p)
	}
	if conf <= 0 || conf >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence level %v outside (0,1)", conf)
	}
	q := p / 100
	z := NormalQuantile(0.5 + float64(conf/2))
	mean := float64(float64(n) * q)
	half := float64(z * math.Sqrt(float64(n)*q*(1-q)))
	lo := int(math.Floor(mean - half))
	hi := int(math.Ceil(mean + half))
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	return Interval{Lo: sorted[lo], Hi: sorted[hi]}, nil
}

// MeanCI returns the normal-approximation confidence interval
// mean ± z·sd/√n for the population mean, at confidence level conf
// (0 < conf < 1). sd is the sample standard deviation; n must be ≥ 1.
func MeanCI(mean, sd float64, n int64, conf float64) (Interval, error) {
	if n < 1 {
		return Interval{}, ErrEmpty
	}
	if conf <= 0 || conf >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence level %v outside (0,1)", conf)
	}
	if sd < 0 {
		return Interval{}, fmt.Errorf("stats: negative standard deviation %v", sd)
	}
	z := NormalQuantile(0.5 + float64(conf/2))
	half := z * sd / math.Sqrt(float64(n))
	return Interval{Lo: mean - half, Hi: mean + half}, nil
}

// SortedCopy returns a sorted copy of xs, leaving xs untouched.
func SortedCopy(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}
