// Package stats provides small streaming-statistics primitives used across
// the simulator: running moments, min/max tracking, and time-weighted
// averages for the 1µs-interval reliability accounting the paper describes
// (§2, "a running average of these instantaneous FIT values is maintained").
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested from an accumulator
// that has seen no samples.
var ErrEmpty = errors.New("stats: no samples")

// Running accumulates count, mean, variance (Welford), min, and max of a
// stream of float64 samples. The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one sample.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += float64(delta * (x - r.mean))
}

// AddN incorporates the same sample value n times (used when an interval
// repeats a steady value). n must be positive; non-positive n is ignored.
func (r *Running) AddN(x float64, n int64) {
	if n <= 0 {
		return
	}
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	// Merge a degenerate distribution (mean x, variance 0, count n).
	total := r.n + n
	delta := x - r.mean
	r.m2 += delta * delta * float64(r.n) * float64(n) / float64(total)
	r.mean += delta * float64(n) / float64(total)
	r.n = total
}

// N returns the number of samples seen.
func (r *Running) N() int64 { return r.n }

// Mean returns the arithmetic mean, or 0 if no samples were seen.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance, or 0 with fewer than 2 samples.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest sample, or 0 if no samples were seen.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return 0
	}
	return r.min
}

// Max returns the largest sample, or 0 if no samples were seen.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// Merge folds another accumulator into r (parallel Welford merge).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	total := r.n + o.n
	delta := o.mean - r.mean
	r.m2 += o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(total)
	r.mean += delta * float64(o.n) / float64(total)
	r.n = total
}

// TimeWeighted accumulates a time-weighted average of a piecewise-constant
// signal: each Add contributes value×duration. Durations are dimensionless
// weights (the caller picks the unit, e.g. microseconds).
type TimeWeighted struct {
	weightedSum float64
	totalTime   float64
	min, max    float64
	n           int64
}

// Add incorporates a value held for the given duration. Non-positive
// durations are ignored.
func (t *TimeWeighted) Add(value, duration float64) {
	if duration <= 0 {
		return
	}
	if t.n == 0 {
		t.min, t.max = value, value
	} else {
		if value < t.min {
			t.min = value
		}
		if value > t.max {
			t.max = value
		}
	}
	t.n++
	t.weightedSum += float64(value * duration)
	t.totalTime += duration
}

// Mean returns the time-weighted mean, or 0 if nothing was added.
func (t *TimeWeighted) Mean() float64 {
	if t.totalTime == 0 {
		return 0
	}
	return t.weightedSum / t.totalTime
}

// TotalTime returns the accumulated duration.
func (t *TimeWeighted) TotalTime() float64 { return t.totalTime }

// Min returns the smallest value added, or 0 if nothing was added.
func (t *TimeWeighted) Min() float64 {
	if t.n == 0 {
		return 0
	}
	return t.min
}

// Max returns the largest value added, or 0 if nothing was added.
func (t *TimeWeighted) Max() float64 {
	if t.n == 0 {
		return 0
	}
	return t.max
}

// N returns the number of (value, duration) pairs added.
func (t *TimeWeighted) N() int64 { return t.n }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (minV, maxV float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	minV, maxV = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
	}
	return minV, maxV, nil
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
