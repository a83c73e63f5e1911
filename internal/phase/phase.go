// Package phase implements SimPoint-style phase compression of activity
// traces. Workload activity is piecewise stationary: long runs of 1µs
// samples whose per-structure activity factors barely move, recurring as
// the program re-enters the same loops. The thermal block time constants
// (~ms) are roughly three orders of magnitude above the 1µs sample step,
// so integrating such a run one sample at a time is pure overhead — a
// single error-bounded coarse step over the run's mean activity produces
// the same trajectory to within the integrator tolerance.
//
// Compress scans a trace once and produces a Plan:
//
//   - consecutive samples whose AF vectors stay within EpsilonAF of the
//     run's anchor coalesce into one Phase carrying the run's exact
//     time-weighted mean AF and duration;
//   - phases with indistinguishable mean activity (the program revisiting
//     the same behaviour) share a Class, with the longest occurrence as
//     the representative window and the class's total occupancy recorded —
//     consumers evaluate per-class work (e.g. the dynamic power vector)
//     once and weight by occupancy, SimPoint-style.
//
// The compression is conservative by construction: total duration is
// preserved exactly (up to float re-association), the global time-weighted
// mean AF is preserved exactly, and per-structure maxima over the raw
// samples are retained for worst-case analysis. What is lost is intra-run
// variation below EpsilonAF — bounded, and far below the thermal filter's
// passband at these run lengths.
package phase

import (
	"fmt"
	"math"

	"github.com/ramp-sim/ramp/internal/microarch"
)

// DefaultEpsilonAF is the per-structure activity-factor deviation within
// which consecutive samples are considered the same stationary behaviour.
const DefaultEpsilonAF = 0.02

// Options parameterises Compress.
type Options struct {
	// EpsilonAF is the maximum per-structure |AF − anchor| for a sample to
	// join the current run; 0 means DefaultEpsilonAF. It also sets the
	// quantisation grid for class matching.
	EpsilonAF float64
	// ExpandStart and ExpandFactor re-expand a systematically sampled
	// trace to its source's time base: durations of samples at index ≥
	// ExpandStart are scaled by ExpandFactor (the sampling period/window
	// ratio), so behaviour observed through periodic windows regains the
	// duration weight it has in the unsampled stream. Samples before
	// ExpandStart — the sampler's contiguous head, which was simulated in
	// full — keep weight 1. ExpandFactor 0 or 1 disables the expansion.
	ExpandStart  int
	ExpandFactor float64
}

// norm fills defaults.
func (o Options) norm() Options {
	if o.EpsilonAF <= 0 {
		o.EpsilonAF = DefaultEpsilonAF
	}
	if o.ExpandFactor == 1 {
		o.ExpandFactor = 0
	}
	return o
}

// Validate rejects non-finite or out-of-range epsilons and expansions.
func (o Options) Validate() error {
	if o.EpsilonAF < 0 || o.EpsilonAF > 1 || o.EpsilonAF != o.EpsilonAF {
		return fmt.Errorf("phase: epsilon %v outside [0,1]", o.EpsilonAF)
	}
	if o.ExpandStart < 0 {
		return fmt.Errorf("phase: expansion start %d must be non-negative", o.ExpandStart)
	}
	if o.ExpandFactor < 0 || math.IsNaN(o.ExpandFactor) || math.IsInf(o.ExpandFactor, 0) {
		return fmt.Errorf("phase: expansion factor %v must be non-negative and finite", o.ExpandFactor)
	}
	return nil
}

// Phase is one stationary run of consecutive samples.
type Phase struct {
	// Start and Len delimit the run's sample index range [Start, Start+Len).
	Start, Len int
	// DurUS is the run's total duration in microseconds.
	DurUS float64
	// AF is the run's exact time-weighted mean activity factor.
	AF [microarch.NumStructures]float64
	// Class indexes Plan.Classes.
	Class int
}

// Class groups recurring phases with indistinguishable mean activity.
type Class struct {
	// Rep is the index (into Plan.Phases) of the representative window:
	// the longest occurrence of the class.
	Rep int
	// Count is the number of member phases.
	Count int
	// DurUS is the class's total occupancy across the trace.
	DurUS float64
	// AF is the occupancy-weighted mean activity of the class.
	AF [microarch.NumStructures]float64
}

// Plan is the compressed form of one activity trace.
type Plan struct {
	// Phases holds the stationary runs in time order; they partition the
	// sample range exactly.
	Phases []Phase
	// Classes holds the recurrence groups, in order of first appearance.
	Classes []Class
	// TotalDurUS is the summed duration of all phases (equals the raw
	// trace duration up to float re-association).
	TotalDurUS float64
	// NumSamples is the raw sample count the plan covers.
	NumSamples int
	// MaxAF is the per-structure maximum over the raw samples — phases
	// carry means, so worst-case analysis reads the true maxima from here.
	MaxAF [microarch.NumStructures]float64
	// ExpandStart and ExpandFactor echo the re-expansion the plan was
	// built with (Options), so Check can reproduce the duration weighting.
	ExpandStart  int
	ExpandFactor float64
}

// CompressionRatio reports raw samples per phase (≥ 1).
func (p *Plan) CompressionRatio() float64 {
	if len(p.Phases) == 0 {
		return 1
	}
	return float64(p.NumSamples) / float64(len(p.Phases))
}

// Compress scans the samples once and builds the phase plan. cyclesPerUS
// converts each sample's cycle count to microseconds. Samples with
// non-positive duration are skipped, matching the transient loop.
func Compress(samples []microarch.ActivitySample, cyclesPerUS int64, opt Options) (*Plan, error) {
	o := opt.norm()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if cyclesPerUS <= 0 {
		return nil, fmt.Errorf("phase: cyclesPerUS must be positive, got %d", cyclesPerUS)
	}
	eps := o.EpsilonAF
	p := &Plan{NumSamples: len(samples), ExpandStart: o.ExpandStart, ExpandFactor: o.ExpandFactor}

	var cur Phase
	var anchor [microarch.NumStructures]float64
	var afWeighted [microarch.NumStructures]float64 // ∑ af·dur over the open run
	open := false

	flush := func() {
		if !open || cur.Len == 0 {
			return
		}
		for b := range afWeighted {
			if cur.DurUS > 0 {
				cur.AF[b] = afWeighted[b] / cur.DurUS
			}
		}
		p.Phases = append(p.Phases, cur)
		p.TotalDurUS += cur.DurUS
		open = false
	}

	for i := range samples {
		s := &samples[i]
		dur := float64(s.Cycles) / float64(cyclesPerUS)
		if dur <= 0 {
			continue
		}
		if o.ExpandFactor > 0 && i >= o.ExpandStart {
			dur *= o.ExpandFactor
		}
		for b := range s.AF {
			if s.AF[b] > p.MaxAF[b] {
				p.MaxAF[b] = s.AF[b]
			}
		}
		if open {
			join := true
			for b := range s.AF {
				d := s.AF[b] - anchor[b]
				if d < 0 {
					d = -d
				}
				if d > eps {
					join = false
					break
				}
			}
			if !join {
				flush()
			}
		}
		if !open {
			open = true
			cur = Phase{Start: i}
			anchor = s.AF
			afWeighted = [microarch.NumStructures]float64{}
		}
		cur.Len = i - cur.Start + 1
		cur.DurUS += dur
		for b := range s.AF {
			afWeighted[b] += float64(s.AF[b] * dur)
		}
	}
	flush()

	p.assignClasses(eps)
	return p, nil
}

// assignClasses groups phases whose mean AF falls in the same epsilon-grid
// cell for every structure, picking each class's longest occurrence as the
// representative window.
func (p *Plan) assignClasses(eps float64) {
	type key [microarch.NumStructures]int32
	index := make(map[key]int)
	for i := range p.Phases {
		ph := &p.Phases[i]
		var k key
		for b, af := range ph.AF {
			// Round (not truncate): recurring phases land on nearly equal
			// means, and truncation would split them at grid boundaries.
			k[b] = int32(math.Round(af / eps))
		}
		ci, ok := index[k]
		if !ok {
			ci = len(p.Classes)
			index[k] = ci
			p.Classes = append(p.Classes, Class{Rep: i})
		}
		ph.Class = ci
		c := &p.Classes[ci]
		c.Count++
		c.DurUS += ph.DurUS
		for b := range c.AF {
			c.AF[b] += float64(ph.AF[b] * ph.DurUS)
		}
		if ph.DurUS > p.Phases[c.Rep].DurUS {
			c.Rep = i
		}
	}
	for ci := range p.Classes {
		c := &p.Classes[ci]
		if c.DurUS > 0 {
			for b := range c.AF {
				c.AF[b] /= c.DurUS
			}
		}
	}
}

// MeanAF returns the plan's global time-weighted mean activity factor —
// exactly the raw trace's, since every phase carries its run's exact
// weighted mean.
func (p *Plan) MeanAF() [microarch.NumStructures]float64 {
	var out [microarch.NumStructures]float64
	if p.TotalDurUS <= 0 {
		return out
	}
	for _, ph := range p.Phases {
		for b := range out {
			out[b] += float64(ph.AF[b] * ph.DurUS)
		}
	}
	for b := range out {
		out[b] /= p.TotalDurUS
	}
	return out
}

// Check verifies the plan's structural invariants against the samples it
// was compressed from: phases partition the positive-duration samples in
// order, total duration and time-weighted mean AF re-expand to the raw
// trace's (under the plan's recorded duration expansion) within tolerance,
// and classes partition the phases. It is the re-expansion oracle behind
// the fuzz target.
func (p *Plan) Check(samples []microarch.ActivitySample, cyclesPerUS int64) error {
	var rawDur float64
	var rawAF [microarch.NumStructures]float64
	for i := range samples {
		dur := float64(samples[i].Cycles) / float64(cyclesPerUS)
		if dur <= 0 {
			continue
		}
		if p.ExpandFactor > 0 && i >= p.ExpandStart {
			dur *= p.ExpandFactor
		}
		rawDur += dur
		for b := range rawAF {
			rawAF[b] += samples[i].AF[b] * dur
		}
	}
	const rel = 1e-9
	if d := p.TotalDurUS - rawDur; d > rel*rawDur+1e-12 || -d > rel*rawDur+1e-12 {
		return fmt.Errorf("phase: duration %v re-expands to %v", rawDur, p.TotalDurUS)
	}
	mean := p.MeanAF()
	for b := range mean {
		want := 0.0
		if rawDur > 0 {
			want = rawAF[b] / rawDur
		}
		if d := mean[b] - want; d > 1e-9 || -d > 1e-9 {
			return fmt.Errorf("phase: structure %d mean AF %v re-expands to %v", b, want, mean[b])
		}
	}
	next := -1
	var classDur []float64
	classCount := make([]int, len(p.Classes))
	classDur = make([]float64, len(p.Classes))
	for i, ph := range p.Phases {
		if ph.Len <= 0 {
			return fmt.Errorf("phase: empty phase %d", i)
		}
		if ph.Start <= next {
			return fmt.Errorf("phase: phase %d overlaps predecessor", i)
		}
		next = ph.Start + ph.Len - 1
		if next >= len(samples) {
			return fmt.Errorf("phase: phase %d exceeds sample range", i)
		}
		if ph.Class < 0 || ph.Class >= len(p.Classes) {
			return fmt.Errorf("phase: phase %d has unknown class %d", i, ph.Class)
		}
		classCount[ph.Class]++
		classDur[ph.Class] += ph.DurUS
	}
	for ci, c := range p.Classes {
		if c.Count != classCount[ci] {
			return fmt.Errorf("phase: class %d count %d, members %d", ci, c.Count, classCount[ci])
		}
		if d := c.DurUS - classDur[ci]; d > 1e-9 || -d > 1e-9 {
			return fmt.Errorf("phase: class %d occupancy %v, members sum %v", ci, c.DurUS, classDur[ci])
		}
		if c.Rep < 0 || c.Rep >= len(p.Phases) || p.Phases[c.Rep].Class != ci {
			return fmt.Errorf("phase: class %d representative %d not a member", ci, c.Rep)
		}
	}
	return nil
}
