package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of samples by
// linear interpolation between closest ranks. A failed operation is
// recorded as +Inf, so failures push every percentile they reach to +Inf
// instead of vanishing from the sample. It returns NaN for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so a reported tail never rests on a handful
// of operations. It returns 0 when even p90 is unsupported (fewer than 100
// samples).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// median is the 50th percentile.
func median(samples []float64) float64 { return percentile(samples, 50) }

// finite maps +Inf (an operation that failed) to the largest float, which
// JSON can carry; the run is reported incorrect anyway.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// optional is the p-th percentile of samples, or 0 (omitted from the
// record) when there are none or p is 0.
func optional(samples []float64, p float64) float64 {
	if len(samples) == 0 || p == 0 {
		return 0
	}
	return finite(percentile(samples, p))
}
