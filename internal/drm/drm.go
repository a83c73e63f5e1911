// Package drm implements dynamic reliability management — the
// application-aware response the paper's conclusions call for (§5.2,
// citing Srinivasan et al.'s DRM proposal [15]). Instead of qualifying the
// processor for worst-case operating conditions, the chip is qualified for
// expected conditions and a runtime controller adapts the voltage/
// frequency operating point so the accumulated failure rate stays within
// the qualified budget: cool applications harvest performance headroom,
// hot applications are throttled back.
//
// The controller here is the ladder design from the DRM literature: a
// sorted list of DVS operating points, a control epoch, and a cumulative
// FIT comparison against the budget with hysteresis.
package drm

import (
	"fmt"
	"sort"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/floorplan"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/power"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/thermal"
)

// OperatingPoint is one rung of the DVS ladder.
type OperatingPoint struct {
	// VddV is the supply voltage.
	VddV float64
	// FreqGHz is the clock frequency at that voltage.
	FreqGHz float64
}

// Policy configures the controller.
type Policy struct {
	// Ladder is the list of available operating points; Run sorts it by
	// frequency ascending.
	Ladder []OperatingPoint
	// BudgetFIT is the qualified failure-rate budget the cumulative
	// average FIT must not exceed.
	BudgetFIT float64
	// EpochIntervals is the control period in 1µs evaluation intervals.
	EpochIntervals int
	// Headroom in (0, 1]: the controller steps up only when the
	// cumulative FIT is below Headroom × BudgetFIT, providing hysteresis.
	Headroom float64
	// StartLevel indexes the initial ladder rung (after sorting).
	StartLevel int
}

// Validate checks the policy.
func (p Policy) Validate() error {
	if len(p.Ladder) == 0 {
		return fmt.Errorf("drm: empty operating-point ladder")
	}
	for _, op := range p.Ladder {
		if op.VddV <= 0 || op.FreqGHz <= 0 {
			return fmt.Errorf("drm: invalid operating point %+v", op)
		}
	}
	if p.BudgetFIT <= 0 {
		return fmt.Errorf("drm: budget must be positive, got %v", p.BudgetFIT)
	}
	if p.EpochIntervals < 1 {
		return fmt.Errorf("drm: epoch must be at least 1 interval, got %d", p.EpochIntervals)
	}
	if p.Headroom <= 0 || p.Headroom > 1 {
		return fmt.Errorf("drm: headroom %v outside (0, 1]", p.Headroom)
	}
	if p.StartLevel < 0 || p.StartLevel >= len(p.Ladder) {
		return fmt.Errorf("drm: start level %d outside ladder", p.StartLevel)
	}
	return nil
}

// DefaultLadder returns a five-rung DVS ladder topping out at the
// technology's nominal (qualification) point: 80–100% voltage in 5% steps
// with frequency tracking voltage. The ladder deliberately has no
// above-nominal rung: with the published Wu et al. voltage-acceleration
// exponent (a−bT ≈ 108) even a 5% overdrive costs two orders of magnitude
// of TDDB lifetime, so practical DRM recovers performance by *not
// throttling* cool workloads rather than by overclocking them.
func DefaultLadder(tech scaling.Technology) []OperatingPoint {
	steps := []float64{0.80, 0.85, 0.90, 0.95, 1.00}
	out := make([]OperatingPoint, 0, len(steps))
	for _, s := range steps {
		out = append(out, OperatingPoint{
			VddV:    tech.VddV * s,
			FreqGHz: tech.FreqGHz * s,
		})
	}
	return out
}

// Result summarises a managed run.
type Result struct {
	// AvgFreqGHz is the time-averaged frequency — the throughput proxy the
	// controller trades against reliability.
	AvgFreqGHz float64
	// AvgFIT is the cumulative calibrated failure rate of the managed run.
	AvgFIT float64
	// MetBudget reports whether AvgFIT ended at or below the budget.
	MetBudget bool
	// Switches counts ladder transitions.
	Switches int
	// TimeShare is the fraction of run time spent at each ladder level.
	TimeShare []float64
	// MaxStructTempK is the hottest instantaneous structure temperature.
	MaxStructTempK float64
	// FinalLevel is the rung occupied at the end of the run.
	FinalLevel int
}

// Run executes a DRM-managed evaluation of an activity trace at one
// technology point. consts must come from a study's qualification (or
// core.ReferenceConstants). sinkTempTargetK and appPowerScale have the
// same meaning as in sim.EvaluateTech.
func Run(cfg sim.Config, tr *sim.ActivityTrace, tech scaling.Technology,
	consts core.Constants, pol Policy, sinkTempTargetK, appPowerScale float64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := pol.Validate(); err != nil {
		return Result{}, err
	}
	if err := consts.Validate(); err != nil {
		return Result{}, err
	}
	if tr == nil || len(tr.Timing.Samples) == 0 {
		return Result{}, fmt.Errorf("drm: empty activity trace")
	}
	ladder := make([]OperatingPoint, len(pol.Ladder))
	copy(ladder, pol.Ladder)
	sort.Slice(ladder, func(i, j int) bool { return ladder[i].FreqGHz < ladder[j].FreqGHz })

	fp, err := floorplan.POWER4().Scaled(tech.RelArea)
	if err != nil {
		return Result{}, err
	}
	pm, err := power.NewModel(cfg.Power, tech, fp.Areas())
	if err != nil {
		return Result{}, err
	}
	if appPowerScale > 0 && appPowerScale != 1 {
		if err := pm.SetAppScale(appPowerScale); err != nil {
			return Result{}, err
		}
	}
	net, err := thermal.NewNetwork(fp, cfg.Thermal)
	if err != nil {
		return Result{}, err
	}
	eval, err := core.NewEvaluator(cfg.RAMP, consts, tech, fp.Areas())
	if err != nil {
		return Result{}, err
	}

	// Initialise the thermal state at the nominal-point steady state (the
	// qualification condition), using the same fixed-point solve as the
	// unmanaged pipeline.
	steady, err := sim.SolveOperatingPoint(pm, net, tr.Timing.AvgAF, sinkTempTargetK)
	if err != nil {
		return Result{}, err
	}
	net.Init(steady)

	level := pol.StartLevel
	res := Result{TimeShare: make([]float64, len(ladder))}
	var (
		fitSum, freqSum, totalT float64
		sinceEpoch              int
	)
	for i := range tr.Timing.Samples {
		s := &tr.Timing.Samples[i]
		dur := float64(s.Cycles) / float64(cfg.Machine.CyclesPerMicrosecond())
		if dur <= 0 {
			continue
		}
		op := ladder[level]
		cur := net.Current()
		dyn := pm.DynamicAt(s.AF, op.VddV, op.FreqGHz)
		var blockP [microarch.NumStructures]float64
		for b := range blockP {
			blockP[b] = dyn[b] + pm.LeakageAtV(microarch.StructureID(b), cur.Blocks[b], op.VddV)
		}
		net.Step(blockP[:], dur*1e-6)
		cur = net.Current()
		dieAvg := net.DieAverage(cur)
		var blockT [microarch.NumStructures]float64
		copy(blockT[:], cur.Blocks)
		fit := eval.Instant(s.AF, blockT, op.VddV, dieAvg)
		fitSum += float64(fit.Total() * dur)
		freqSum += float64(op.FreqGHz * dur)
		totalT += dur
		res.TimeShare[level] += dur
		if t := cur.MaxBlock(); t > res.MaxStructTempK {
			res.MaxStructTempK = t
		}

		// Controller: at each epoch boundary compare the cumulative
		// average FIT against the budget.
		sinceEpoch++
		if sinceEpoch < pol.EpochIntervals {
			continue
		}
		sinceEpoch = 0
		cum := fitSum / totalT
		switch {
		case cum > pol.BudgetFIT && level > 0:
			level--
			res.Switches++
		case cum < pol.Headroom*pol.BudgetFIT && level < len(ladder)-1:
			level++
			res.Switches++
		}
	}
	if totalT == 0 {
		return Result{}, fmt.Errorf("drm: no evaluable intervals")
	}
	res.AvgFreqGHz = freqSum / totalT
	res.AvgFIT = fitSum / totalT
	res.MetBudget = res.AvgFIT <= pol.BudgetFIT*1.001
	res.FinalLevel = level
	for i := range res.TimeShare {
		res.TimeShare[i] /= totalT
	}
	return res, nil
}
