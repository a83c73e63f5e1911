// Package cycles analyses small thermal cycles — the high-frequency
// temperature oscillations caused by variations in application behaviour.
// The paper models only large (power-on/off) cycles and notes that "the
// effect of small thermal cycles has not been well studied and validated
// models are not available" (§2). This package provides the measurement
// half of that open problem: rainflow cycle counting (ASTM E1049) over a
// simulated temperature trace, and a Coffin-Manson damage *index* that
// ranks workloads and technologies by small-cycle stress. The index is
// relative — absolute FIT calibration would require exactly the validated
// models the paper says do not exist.
package cycles

import (
	"fmt"
	"math"
)

// Cycle is one counted thermal cycle.
type Cycle struct {
	// RangeK is the peak-to-valley temperature swing.
	RangeK float64
	// MeanK is the cycle's mean temperature.
	MeanK float64
	// Count is 1.0 for a full cycle, 0.5 for a residual half cycle.
	Count float64
}

// turningPoints reduces a series to its alternating local extrema,
// dropping equal neighbours.
func turningPoints(series []float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	tp := make([]float64, 0, len(series))
	tp = append(tp, series[0])
	for i := 1; i < len(series)-1; i++ {
		prev, cur, next := series[i-1], series[i], series[i+1]
		if (cur > prev && cur >= next) || (cur < prev && cur <= next) {
			tp = append(tp, cur)
		}
	}
	if len(series) > 1 {
		tp = append(tp, series[len(series)-1])
	}
	// Remove consecutive duplicates introduced by flat segments.
	out := tp[:1]
	for _, v := range tp[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Rainflow counts the thermal cycles in a temperature series using the
// ASTM E1049-85 rainflow algorithm. Unclosed residual ranges are reported
// as half cycles.
func Rainflow(series []float64) []Cycle {
	tp := turningPoints(series)
	var out []Cycle
	var stack []float64
	for _, point := range tp {
		stack = append(stack, point)
		for len(stack) >= 3 {
			n := len(stack)
			x := math.Abs(stack[n-1] - stack[n-2])
			y := math.Abs(stack[n-2] - stack[n-3])
			if x < y {
				break
			}
			if n == 3 {
				// Range Y contains the series start: half cycle.
				out = append(out, Cycle{
					RangeK: y,
					MeanK:  (stack[0] + stack[1]) / 2,
					Count:  0.5,
				})
				stack = append(stack[:0], stack[1], stack[2])
			} else {
				// Interior range: full cycle; remove its two points.
				out = append(out, Cycle{
					RangeK: y,
					MeanK:  (stack[n-2] + stack[n-3]) / 2,
					Count:  1,
				})
				stack = append(stack[:n-3], stack[n-1])
			}
		}
	}
	// Residuals: each remaining range is a half cycle.
	for i := 0; i+1 < len(stack); i++ {
		out = append(out, Cycle{
			RangeK: math.Abs(stack[i+1] - stack[i]),
			MeanK:  (stack[i+1] + stack[i]) / 2,
			Count:  0.5,
		})
	}
	return out
}

// Params configures the small-cycle damage index.
type Params struct {
	// Q is the Coffin-Manson exponent for small cycles; solder-fatigue
	// analyses use the same 2.35 as the package model by default.
	Q float64
	// MinRangeK ignores cycles below this swing (measurement noise and
	// elastic-only deformation).
	MinRangeK float64
}

// DefaultParams returns the package Coffin-Manson exponent with a 0.1K
// noise floor.
func DefaultParams() Params {
	return Params{Q: 2.35, MinRangeK: 0.1}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Q <= 0 {
		return fmt.Errorf("cycles: exponent must be positive")
	}
	if p.MinRangeK < 0 {
		return fmt.Errorf("cycles: negative noise floor")
	}
	return nil
}

// Summary aggregates a rainflow analysis.
type Summary struct {
	// Cycles is the total cycle count above the noise floor.
	Cycles float64
	// MaxRangeK and MeanRangeK describe the counted swings.
	MaxRangeK, MeanRangeK float64
	// DamageIndex is Σ count·ΔT^q per second of simulated time — a
	// relative Coffin-Manson stress measure for comparing workloads,
	// technologies, and mitigation policies.
	DamageIndex float64
}

// Analyze runs rainflow counting over a temperature series spanning
// durationSeconds of simulated time and returns the damage summary.
func Analyze(series []float64, durationSeconds float64, p Params) (Summary, error) {
	if err := p.Validate(); err != nil {
		return Summary{}, err
	}
	if durationSeconds <= 0 {
		return Summary{}, fmt.Errorf("cycles: duration must be positive")
	}
	var s Summary
	var rangeSum float64
	for _, c := range Rainflow(series) {
		if c.RangeK < p.MinRangeK {
			continue
		}
		s.Cycles += c.Count
		rangeSum += float64(c.RangeK * c.Count)
		if c.RangeK > s.MaxRangeK {
			s.MaxRangeK = c.RangeK
		}
		s.DamageIndex += float64(c.Count * math.Pow(c.RangeK, p.Q))
	}
	if s.Cycles > 0 {
		s.MeanRangeK = rangeSum / s.Cycles
	}
	s.DamageIndex /= durationSeconds
	return s, nil
}
