// Package multicore extends the paper's single-core analysis to a
// chip-multiprocessor die: N copies of the POWER4-like core tiled side by
// side, thermally coupled through the shared silicon and package, each
// running its own workload. It supports the two CMP-era questions the
// paper's conclusions point toward: how workload *placement* affects
// whole-chip lifetime, and how much activity migration — periodically
// swapping hot and cool workloads between cores (Heo et al. [7], which the
// paper cites for its leakage model) — recovers reliability.
//
// The failure model composes per the SOFR assumption: the chip is a series
// failure system over every structure of every core (EM, SM, TDDB), plus a
// single package-level thermal-cycling component driven by the
// whole-die average temperature.
package multicore

import (
	"context"
	"fmt"
	"sort"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/drm"
	"github.com/ramp-sim/ramp/internal/floorplan"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/power"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/thermal"
)

// Config parameterises a CMP evaluation.
type Config struct {
	// Base carries the per-core machine, power, thermal, and RAMP models.
	Base sim.Config
	// Cores is the number of tiled cores.
	Cores int
	// MigrateIntervals, when positive, rotates the workload→core
	// assignment every MigrateIntervals 1µs intervals (activity
	// migration). Zero disables migration.
	MigrateIntervals int
	// GridCols, when positive, arranges the cores in a grid with this
	// many columns (Cores must be divisible by it); zero lays every core
	// in a single row.
	GridCols int
	// DRM, when non-nil, runs an independent dynamic-reliability
	// controller on every core: each walks the DVS ladder so its own
	// cumulative (non-TC) failure rate tracks Policy.BudgetFIT. Composes
	// with activity migration.
	DRM *DRMConfig
}

// DRMConfig attaches per-core dynamic reliability management to a CMP
// evaluation.
type DRMConfig struct {
	// Policy is the per-core controller configuration; BudgetFIT is
	// interpreted per core, excluding the chip-level TC component.
	Policy drm.Policy
	// Constants convert raw rates to absolute FITs for the controller.
	Constants core.Constants
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.Cores < 1 {
		return fmt.Errorf("multicore: need at least 1 core, got %d", c.Cores)
	}
	if c.MigrateIntervals < 0 {
		return fmt.Errorf("multicore: negative migration interval")
	}
	if c.GridCols < 0 {
		return fmt.Errorf("multicore: negative grid columns")
	}
	if c.GridCols > 0 && c.Cores%c.GridCols != 0 {
		return fmt.Errorf("multicore: %d cores not divisible into %d columns", c.Cores, c.GridCols)
	}
	if c.DRM != nil {
		if err := c.DRM.Policy.Validate(); err != nil {
			return err
		}
		if err := c.DRM.Constants.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CoreResult summarises one core of the evaluation.
type CoreResult struct {
	// Apps lists the workloads that ran on this core (more than one under
	// migration).
	Apps []string
	// AvgPowerW is the core's time-averaged power.
	AvgPowerW float64
	// MaxTempK is the core's hottest structure temperature over the run.
	MaxTempK float64
	// AvgHotTempK is the time-averaged temperature of the core's hottest
	// structure — the quantity activity migration evens out.
	AvgHotTempK float64
	// RawFIT is the core's accumulated EM/SM/TDDB breakdown with unit
	// constants (TC is chip-level; see Result.RawTCFIT).
	RawFIT core.Breakdown
	// AvgFreqGHz is the core's time-averaged frequency (the technology
	// nominal without DRM).
	AvgFreqGHz float64
	// DRMSwitches counts the core's ladder transitions (0 without DRM).
	DRMSwitches int
}

// Result is a whole-chip evaluation.
type Result struct {
	// Tech is the technology point evaluated.
	Tech scaling.Technology
	// PerCore holds per-core results, indexed by core.
	PerCore []CoreResult
	// RawTCFIT is the single package-level thermal-cycling rate (unit
	// constants), computed from the whole-die average temperature.
	RawTCFIT float64
	// MaxTempK is the hottest structure temperature anywhere on the die.
	MaxTempK float64
	// SinkTempK is the time-averaged heat-sink temperature.
	SinkTempK float64
	// AvgPowerW is the whole-chip average power.
	AvgPowerW float64
	// Migrations counts workload rotations performed.
	Migrations int
}

// ChipFIT returns the calibrated whole-chip failure rate: the SOFR sum of
// every core's EM/SM/TDDB rates plus the package TC rate.
func (r *Result) ChipFIT(consts core.Constants) float64 {
	var sum float64
	for i := range r.PerCore {
		mech := r.PerCore[i].RawFIT.ByMechanism()
		sum += float64(mech[core.EM]*consts.K[core.EM]) +
			float64(mech[core.SM]*consts.K[core.SM]) +
			float64(mech[core.TDDB]*consts.K[core.TDDB])
	}
	return sum + float64(r.RawTCFIT*consts.K[core.TC])
}

// Evaluate runs a CMP simulation: traces[i] initially runs on core i; under
// activity migration the assignment rotates periodically. All traces must
// come from the same timing configuration. sinkTempTargetK and
// appPowerScales mirror sim.EvaluateTech (scales may be nil for 1.0).
func Evaluate(cfg Config, traces []*sim.ActivityTrace, tech scaling.Technology,
	sinkTempTargetK float64, appPowerScales []float64) (Result, error) {
	return EvaluateContext(context.Background(), cfg, traces, tech, sinkTempTargetK, appPowerScales)
}

// EvaluateContext is Evaluate with cancellation: the interval loop polls
// ctx every few hundred intervals and aborts with ctx.Err(), so long CMP
// runs started from a study scheduler or a CLI unwind promptly.
func EvaluateContext(ctx context.Context, cfg Config, traces []*sim.ActivityTrace, tech scaling.Technology,
	sinkTempTargetK float64, appPowerScales []float64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := tech.Validate(); err != nil {
		return Result{}, err
	}
	if len(traces) != cfg.Cores {
		return Result{}, fmt.Errorf("multicore: %d traces for %d cores", len(traces), cfg.Cores)
	}
	nIntervals := -1
	for i, tr := range traces {
		if tr == nil || len(tr.Timing.Samples) == 0 {
			return Result{}, fmt.Errorf("multicore: empty trace for core %d", i)
		}
		if nIntervals < 0 || len(tr.Timing.Samples) < nIntervals {
			nIntervals = len(tr.Timing.Samples)
		}
	}
	if appPowerScales == nil {
		appPowerScales = make([]float64, cfg.Cores)
		for i := range appPowerScales {
			appPowerScales[i] = 1
		}
	}
	if len(appPowerScales) != cfg.Cores {
		return Result{}, fmt.Errorf("multicore: %d power scales for %d cores", len(appPowerScales), cfg.Cores)
	}

	// Build the tiled die at the target technology.
	single, err := floorplan.POWER4().Scaled(tech.RelArea)
	if err != nil {
		return Result{}, err
	}
	cols := cfg.Cores
	rows := 1
	if cfg.GridCols > 0 {
		cols = cfg.GridCols
		rows = cfg.Cores / cfg.GridCols
	}
	fp, err := single.TiledGrid(cols, rows)
	if err != nil {
		return Result{}, err
	}
	net, err := thermal.NewNetwork(fp, cfg.Base.Thermal)
	if err != nil {
		return Result{}, err
	}
	// One power model per *workload* (the per-app calibration factor
	// follows the app when it migrates) and one evaluator per core.
	models := make([]*power.Model, len(traces))
	evals := make([]*core.Evaluator, cfg.Cores)
	coreAreas := single.Areas()
	for i := range traces {
		pm, err := power.NewModel(cfg.Base.Power, tech, coreAreas)
		if err != nil {
			return Result{}, err
		}
		if appPowerScales[i] > 0 && appPowerScales[i] != 1 {
			if err := pm.SetAppScale(appPowerScales[i]); err != nil {
				return Result{}, err
			}
		}
		models[i] = pm
	}
	for i := 0; i < cfg.Cores; i++ {
		ev, err := core.NewEvaluator(cfg.Base.RAMP, core.UnitConstants(), tech, coreAreas)
		if err != nil {
			return Result{}, err
		}
		evals[i] = ev
	}

	// assignment[c] = index of the trace currently running on core c.
	assignment := make([]int, cfg.Cores)
	for i := range assignment {
		assignment[i] = i
	}

	// Per-core DRM controller state.
	var ladder []drm.OperatingPoint
	level := make([]int, cfg.Cores)
	drmFit := make([]float64, cfg.Cores) // calibrated non-TC FIT·time
	sinceEpoch := make([]int, cfg.Cores)
	if cfg.DRM != nil {
		ladder = make([]drm.OperatingPoint, len(cfg.DRM.Policy.Ladder))
		copy(ladder, cfg.DRM.Policy.Ladder)
		sort.Slice(ladder, func(i, j int) bool { return ladder[i].FreqGHz < ladder[j].FreqGHz })
		for c := range level {
			level[c] = cfg.DRM.Policy.StartLevel
		}
	}
	opFor := func(c int) (vdd, freq float64) {
		if cfg.DRM == nil {
			return tech.VddV, tech.FreqGHz
		}
		op := ladder[level[c]]
		return op.VddV, op.FreqGHz
	}

	// Pass 1: steady state under average activity for sink initialisation.
	// Under migration every core sees every workload in rotation, so the
	// long-run per-core power is the cross-workload average; initialise
	// the thermal state accordingly (runs are typically shorter than the
	// block RC constants, so the initial state carries the result).
	steady, err := solveChipOperatingPoint(cfg, models, net, traces, assignment,
		cfg.MigrateIntervals > 0, sinkTempTargetK)
	if err != nil {
		return Result{}, err
	}
	net.Init(steady)

	res := Result{
		Tech:    tech,
		PerCore: make([]CoreResult, cfg.Cores),
	}
	appsSeen := make([]map[string]bool, cfg.Cores)
	for i := range appsSeen {
		appsSeen[i] = make(map[string]bool, 2)
	}
	nBlocks := cfg.Cores * microarch.NumStructures
	blockP := make([]float64, nBlocks)
	var (
		sumPower, sumSink, totalT float64
		sumCoreP                  = make([]float64, cfg.Cores)
		sumCoreHot                = make([]float64, cfg.Cores)
		sumCoreFreq               = make([]float64, cfg.Cores)
	)
	params := cfg.Base.RAMP
	cyclesPerUs := float64(cfg.Base.Machine.CyclesPerMicrosecond())
	for iv := 0; iv < nIntervals; iv++ {
		if iv&255 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		// Activity migration: rotate the assignment.
		if cfg.MigrateIntervals > 0 && iv > 0 && iv%cfg.MigrateIntervals == 0 {
			first := assignment[0]
			copy(assignment, assignment[1:])
			assignment[cfg.Cores-1] = first
			res.Migrations++
		}
		cur := net.Current()
		// Duration: use the shortest sample of the interval across cores
		// (they differ only in the final partial interval).
		dur := 1.0
		for c := 0; c < cfg.Cores; c++ {
			s := &traces[assignment[c]].Timing.Samples[iv]
			if d := float64(s.Cycles) / cyclesPerUs; d < dur {
				dur = d
			}
		}
		if dur <= 0 {
			continue
		}
		for c := 0; c < cfg.Cores; c++ {
			pm := models[assignment[c]]
			s := &traces[assignment[c]].Timing.Samples[iv]
			vdd, freq := opFor(c)
			dyn := pm.DynamicAt(s.AF, vdd, freq)
			var coreP float64
			for b := 0; b < microarch.NumStructures; b++ {
				leak := pm.LeakageAtV(microarch.StructureID(b), cur.Blocks[c*microarch.NumStructures+b], vdd)
				blockP[c*microarch.NumStructures+b] = dyn[b] + leak
				coreP += dyn[b] + leak
			}
			sumCoreP[c] += float64(coreP * dur)
			sumPower += float64(coreP * dur)
			sumCoreFreq[c] += float64(freq * dur)
			appsSeen[c][traces[assignment[c]].Profile.Name] = true
		}
		net.Step(blockP, dur*1e-6)
		cur = net.Current()
		dieAvg := net.DieAverage(cur)
		res.RawTCFIT += float64(params.TCRate(dieAvg) * dur)
		for c := 0; c < cfg.Cores; c++ {
			s := &traces[assignment[c]].Timing.Samples[iv]
			vdd, _ := opFor(c)
			var blockT [microarch.NumStructures]float64
			copy(blockT[:], cur.Blocks[c*microarch.NumStructures:(c+1)*microarch.NumStructures])
			fit := evals[c].Instant(s.AF, blockT, vdd, dieAvg)
			// Zero the TC rows: TC is accounted once at chip level.
			for b := range fit.ByStructMech {
				fit.ByStructMech[b][core.TC] = 0
			}
			evals[c].Accumulate(fit, dur)
			// Per-core DRM: compare the cumulative calibrated non-TC FIT
			// against the per-core budget at each epoch boundary.
			if cfg.DRM != nil {
				drmFit[c] += float64(fit.Calibrated(cfg.DRM.Constants).Total() * dur)
				sinceEpoch[c]++
				if sinceEpoch[c] >= cfg.DRM.Policy.EpochIntervals {
					sinceEpoch[c] = 0
					cum := drmFit[c] / (totalT + dur)
					switch {
					case cum > cfg.DRM.Policy.BudgetFIT && level[c] > 0:
						level[c]--
						res.PerCore[c].DRMSwitches++
					case cum < cfg.DRM.Policy.Headroom*cfg.DRM.Policy.BudgetFIT && level[c] < len(ladder)-1:
						level[c]++
						res.PerCore[c].DRMSwitches++
					}
				}
			}
			coreHot := blockT[0]
			for b := 0; b < microarch.NumStructures; b++ {
				if t := blockT[b]; t > res.PerCore[c].MaxTempK {
					res.PerCore[c].MaxTempK = t
				}
				if blockT[b] > coreHot {
					coreHot = blockT[b]
				}
			}
			sumCoreHot[c] += float64(coreHot * dur)
		}
		if t := cur.MaxBlock(); t > res.MaxTempK {
			res.MaxTempK = t
		}
		sumSink += float64(cur.Sink * dur)
		totalT += dur
	}
	if totalT == 0 {
		return Result{}, fmt.Errorf("multicore: no evaluable intervals")
	}
	res.RawTCFIT /= totalT
	res.AvgPowerW = sumPower / totalT
	res.SinkTempK = sumSink / totalT
	for c := 0; c < cfg.Cores; c++ {
		res.PerCore[c].RawFIT = evals[c].Average()
		res.PerCore[c].AvgPowerW = sumCoreP[c] / totalT
		res.PerCore[c].AvgHotTempK = sumCoreHot[c] / totalT
		res.PerCore[c].AvgFreqGHz = sumCoreFreq[c] / totalT
		for app := range appsSeen[c] {
			res.PerCore[c].Apps = append(res.PerCore[c].Apps, app)
		}
	}
	return res, nil
}

// solveChipOperatingPoint iterates the leakage-temperature fixed point for
// the whole chip. With averaged set, each core's dynamic power is the mean
// across all workloads (the migration steady state); otherwise it is the
// assigned workload's average power.
func solveChipOperatingPoint(cfg Config, models []*power.Model, net *thermal.Network,
	traces []*sim.ActivityTrace, assignment []int, averaged bool, sinkTempTargetK float64) (thermal.State, error) {
	nBlocks := cfg.Cores * microarch.NumStructures
	temps := make([]float64, nBlocks)
	for i := range temps {
		temps[i] = 355
	}
	// Per-core average dynamic power.
	coreDyn := make([][microarch.NumStructures]float64, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		if averaged {
			for t := range traces {
				dyn := models[t].Dynamic(traces[t].Timing.AvgAF)
				for b := range coreDyn[c] {
					coreDyn[c][b] += dyn[b] / float64(len(traces))
				}
			}
		} else {
			coreDyn[c] = models[assignment[c]].Dynamic(traces[assignment[c]].Timing.AvgAF)
		}
	}
	blockP := make([]float64, nBlocks)
	var steady thermal.State
	for iter := 0; iter < 60; iter++ {
		var total float64
		for c := 0; c < cfg.Cores; c++ {
			pm := models[assignment[c]]
			for b := 0; b < microarch.NumStructures; b++ {
				leak := float64(pm.LeakageAt(microarch.StructureID(b), temps[c*microarch.NumStructures+b]))
				blockP[c*microarch.NumStructures+b] = coreDyn[c][b] + leak
				total += coreDyn[c][b] + leak
			}
		}
		if sinkTempTargetK > 0 {
			r := (sinkTempTargetK - net.Ambient()) / total
			if r <= 0 {
				return thermal.State{}, fmt.Errorf("multicore: sink target %vK at/below ambient", sinkTempTargetK)
			}
			if err := net.SetSinkR(r); err != nil {
				return thermal.State{}, err
			}
		}
		next, err := net.SteadyState(blockP)
		if err != nil {
			return thermal.State{}, err
		}
		var maxDelta float64
		for i := range temps {
			if !sim.IsReasonableTemp(next.Blocks[i]) {
				return thermal.State{}, fmt.Errorf(
					"multicore: thermal runaway at %.0fW across %d cores: cooling "+
						"insufficient (provide a sink-temperature target or a lower SinkR)",
					total, cfg.Cores)
			}
			d := next.Blocks[i] - temps[i]
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
			temps[i] = float64(0.5*temps[i]) + float64(0.5*next.Blocks[i])
		}
		steady = next
		if maxDelta < 1e-4 {
			return steady, nil
		}
	}
	return steady, fmt.Errorf("multicore: operating point did not converge")
}
