package sim

import (
	"context"
	"fmt"
	"sync"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/phase"
	"github.com/ramp-sim/ramp/internal/power"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/stats"
	"github.com/ramp-sim/ramp/internal/thermal"
	"github.com/ramp-sim/ramp/internal/workload"
)

// cancelCheckInterval is the cancellation-poll cadence of the tight
// numeric loops: the thermal transient polls ctx.Err() every
// cancelCheckInterval intervals, and the Monte Carlo replica loop every
// cancelCheckInterval replicas. A power of two so the check compiles to a
// mask; 256 iterations is well under a millisecond of work in either
// loop, so cancellation is always observed promptly, at negligible
// steady-state cost.
const cancelCheckInterval = 256

// ThermalInterval is one 1µs-granularity step of the transient thermal
// run: everything the reliability stage needs to evaluate the instant
// failure rates of that interval.
type ThermalInterval struct {
	// DurUS is the interval length in microseconds.
	DurUS float64
	// AF is the per-structure activity factor driving the interval.
	AF [microarch.NumStructures]float64
	// TempK is the per-structure temperature after the thermal step.
	TempK [microarch.NumStructures]float64
	// DieAvgTempK is the area-weighted die temperature of the interval.
	DieAvgTempK float64
}

// ThermalSeries is the power+thermal stage artifact for one
// (application × technology) cell: the full transient temperature series
// plus every run-level aggregate that does not depend on the reliability
// constants. It is deliberately independent of Config.RAMP — the
// reliability stage consumes it, so changing a failure-model constant
// re-runs only the cheap FIT accumulation, never the thermal transient.
type ThermalSeries struct {
	// App and Suite identify the workload; TechName names the technology
	// point (scaling.ByName resolves it back).
	App      string         `json:"app"`
	Suite    workload.Suite `json:"suite"`
	TechName string         `json:"tech"`
	// IPC is the timing result.
	IPC float64 `json:"ipc"`
	// AppPowerScale is the per-application dynamic calibration factor the
	// series was produced with (the solved factor for a calibrated base
	// run).
	AppPowerScale float64 `json:"app_power_scale"`
	// Power and temperature aggregates, as defined on AppRun.
	AvgDynamicW       float64                          `json:"avg_dynamic_w"`
	AvgLeakageW       float64                          `json:"avg_leakage_w"`
	SinkTempK         float64                          `json:"sink_temp_k"`
	DieAvgTempK       float64                          `json:"die_avg_temp_k"`
	AvgMaxStructTempK float64                          `json:"avg_max_struct_temp_k"`
	MaxStructTempK    float64                          `json:"max_struct_temp_k"`
	MaxDieAvgTempK    float64                          `json:"max_die_avg_temp_k"`
	MaxAF             [microarch.NumStructures]float64 `json:"max_af"`
	MaxTempK          [microarch.NumStructures]float64 `json:"max_temp_k"`
	// Intervals is the transient series in time order.
	Intervals []ThermalInterval `json:"intervals"`
}

// RunThermal is RunThermalContext without cancellation.
func RunThermal(cfg Config, tr *ActivityTrace, tech scaling.Technology,
	sinkTempTargetK, appPowerScale float64) (*ThermalSeries, error) {
	return RunThermalContext(context.Background(), cfg, tr, tech, sinkTempTargetK, appPowerScale)
}

// RunThermalContext executes the power+thermal stage for one activity
// trace at one technology point: the §4.3 two-pass methodology (steady
// heat-sink initialisation, then the 1µs transient), producing the
// temperature series the reliability stage consumes. The output depends on
// Config.Machine/Power/Thermal and the inputs — not on Config.RAMP — which
// is what makes the series reusable across reliability-constant sweeps.
func RunThermalContext(ctx context.Context, cfg Config, tr *ActivityTrace, tech scaling.Technology,
	sinkTempTargetK, appPowerScale float64) (*ThermalSeries, error) {
	ctx, sp := obs.StartSpan(ctx, obs.SpanThermal)
	if sp != nil {
		sp.SetAttr("tech", tech.Name)
		if tr != nil {
			sp.SetAttr("app", tr.Profile.Name)
		}
		defer sp.Finish()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tr == nil || len(tr.Timing.Samples) == 0 {
		return nil, fmt.Errorf("sim: empty activity trace")
	}
	fp, err := floorplanFor(tech)
	if err != nil {
		return nil, err
	}
	pm, err := power.NewModel(cfg.Power, tech, fp.Areas())
	if err != nil {
		return nil, err
	}
	if appPowerScale > 0 && appPowerScale != 1 {
		if err := pm.SetAppScale(appPowerScale); err != nil {
			return nil, err
		}
	} else {
		appPowerScale = 1
	}
	net, err := thermal.NewNetwork(fp, cfg.Thermal)
	if err != nil {
		return nil, err
	}

	// ---- Pass 1 (§4.3): solve the average-power steady state, adjusting
	// the sink resistance to the target sink temperature if requested.
	// Under phase fidelity the activity trace is a sampled stream in which
	// the contiguous head carries ~Period/Window times its true weight, so
	// the raw stream average would skew toward cold-start behaviour; the
	// compressed plan re-expands window durations to the source time base,
	// and its mean restores the true weighting for the steady solve.
	fd := cfg.Fidelity.norm()
	var plan *phase.Plan
	avgAF := tr.Timing.AvgAF
	if fd.Mode != FidelityExact {
		if plan, err = compressPlan(cfg, tr, fd); err != nil {
			return nil, err
		}
		if fd.Mode == FidelityPhase {
			avgAF = plan.MeanAF()
		}
	}
	steady, err := SolveOperatingPoint(pm, net, avgAF, sinkTempTargetK)
	if err != nil {
		return nil, fmt.Errorf("sim: %s @ %s: %w", tr.Profile.Name, tech.Name, err)
	}

	// ---- Pass 2: the transient run, recording the interval series and the
	// power/temperature statistics. Exact fidelity integrates every 1µs
	// activity sample; adaptive and phase fidelity compress the trace into
	// stationary phases first and advance each with error-bounded coarse
	// steps.
	net.Init(steady)
	ts := &ThermalSeries{
		App:           tr.Profile.Name,
		Suite:         tr.Profile.Suite,
		TechName:      tech.Name,
		IPC:           tr.Timing.IPC(),
		AppPowerScale: appPowerScale,
	}
	if fd.Mode == FidelityExact {
		err = runTransientExact(ctx, cfg, net, pm, tr, ts)
	} else {
		err = runTransientPhases(ctx, net, pm, plan, ts, fd)
	}
	if err != nil {
		return nil, err
	}
	if len(ts.Intervals) == 0 {
		return nil, fmt.Errorf("sim: %s @ %s: no evaluable intervals", tr.Profile.Name, tech.Name)
	}
	return ts, nil
}

// transientScratch holds the per-run mutable buffers of the transient
// loops. Runs borrow one from transientPool, so a study sweep reuses the
// same scratch across its (profile × technology) cells instead of
// allocating per cell, and the inner loops themselves stay at zero
// allocations per interval (CI-gated).
type transientScratch struct {
	cur thermal.State
}

var transientPool = sync.Pool{New: func() any { return new(transientScratch) }}

// state returns the scratch temperature state sized for n blocks.
func (s *transientScratch) state(n int) *thermal.State {
	if cap(s.cur.Blocks) < n {
		s.cur.Blocks = make([]float64, n)
	}
	s.cur.Blocks = s.cur.Blocks[:n]
	return &s.cur
}

// runTransientExact is the exact-fidelity transient: forward Euler over
// every 1µs activity sample, bit-identical to the historical pipeline.
// The loop body performs no heap allocation: the temperature snapshot
// lives in pooled scratch (net.CurrentInto), the power vectors are stack
// arrays, and the interval slice is preallocated to the sample count.
func runTransientExact(ctx context.Context, cfg Config, net *thermal.Network, pm *power.Model,
	tr *ActivityTrace, ts *ThermalSeries) error {
	scratch := transientPool.Get().(*transientScratch)
	defer transientPool.Put(scratch)
	cur := scratch.state(net.NumBlocks())
	if ts.Intervals == nil {
		ts.Intervals = make([]ThermalInterval, 0, len(tr.Timing.Samples))
	}
	cyclesPerUS := float64(cfg.Machine.CyclesPerMicrosecond())
	var twDyn, twLeak, twSink, twDieAvg, twMaxT stats.TimeWeighted
	var blockP [microarch.NumStructures]float64
	for i := range tr.Timing.Samples {
		if i&(cancelCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s := &tr.Timing.Samples[i]
		dur := float64(s.Cycles) / cyclesPerUS // µs
		if dur <= 0 {
			continue
		}
		net.CurrentInto(cur)
		dyn := pm.Dynamic(s.AF)
		var dynSum, leakSum float64
		for b := range blockP {
			leak := pm.LeakageActive(microarch.StructureID(b), cur.Blocks[b], s.AF[b])
			blockP[b] = dyn[b] + leak
			dynSum += dyn[b]
			leakSum += leak
		}
		net.Step(blockP[:], dur*1e-6)
		net.CurrentInto(cur)
		dieAvg := net.DieAverage(*cur)
		iv := ThermalInterval{DurUS: dur, AF: s.AF, DieAvgTempK: dieAvg}
		copy(iv.TempK[:], cur.Blocks)
		ts.Intervals = append(ts.Intervals, iv)

		// Statistics: time-weighted averages with extrema.
		maxT := cur.MaxBlock()
		twDyn.Add(dynSum, dur)
		twLeak.Add(leakSum, dur)
		twSink.Add(cur.Sink, dur)
		twDieAvg.Add(dieAvg, dur)
		twMaxT.Add(maxT, dur)
		for b := range blockP {
			if s.AF[b] > ts.MaxAF[b] {
				ts.MaxAF[b] = s.AF[b]
			}
			if cur.Blocks[b] > ts.MaxTempK[b] {
				ts.MaxTempK[b] = cur.Blocks[b]
			}
		}
	}
	finishTransientStats(ts, &twDyn, &twLeak, &twSink, &twDieAvg, &twMaxT)
	return nil
}

// Adaptive step-size bounds of the coarse integrator, in µs. The step
// starts at the exact loop's 1µs, doubles whenever the embedded error
// estimate sits below a quarter of the tolerance, and halves on
// rejection. The ceiling keeps each step well below the spreader/sink
// time constants; the floor guarantees forward progress even under an
// unreachably tight tolerance.
const (
	initialCoarseStepUS = 1.0
	maxCoarseStepUS     = 512.0
	minCoarseStepUS     = 0.25
)

// compressPlan builds the phase plan for the non-exact transients. Under
// phase fidelity the trace was systematically sampled, so the plan
// re-expands post-head window durations by the period/window ratio —
// behaviour observed through the windows regains the duration weight it
// has in the unsampled stream, while the contiguous head (the cold-start
// transient, simulated in full) keeps weight 1. The head boundary is
// located by accumulating per-sample retired-instruction counts.
func compressPlan(cfg Config, tr *ActivityTrace, fd Fidelity) (*phase.Plan, error) {
	opt := phase.Options{EpsilonAF: fd.PhaseEpsilonAF}
	if fd.Mode == FidelityPhase {
		opt.ExpandFactor = float64(fd.SamplePeriodInstrs) / float64(fd.SampleWindowInstrs)
		opt.ExpandStart = len(tr.Timing.Samples)
		var retired int64
		for i := range tr.Timing.Samples {
			if retired >= fd.SampleHeadInstrs {
				opt.ExpandStart = i
				break
			}
			retired += tr.Timing.Samples[i].Retired
		}
	}
	return phase.Compress(tr.Timing.Samples, cfg.Machine.CyclesPerMicrosecond(), opt)
}

// runTransientPhases is the adaptive/phase-fidelity transient: the
// activity trace is compressed into stationary phases (internal/phase),
// the dynamic-power vector is evaluated once per recurring phase class
// (SimPoint-style memoization), and each phase is advanced with
// error-bounded coarse Heun steps — leakage recomputed from the current
// temperature at every substep, the step size halving whenever the
// embedded local error estimate exceeds the fidelity's ThermalTolK and
// growing when it sits far below. Per-structure MaxAF comes from the raw
// samples via the plan; MaxTempK is tracked across substeps.
func runTransientPhases(ctx context.Context, net *thermal.Network, pm *power.Model,
	plan *phase.Plan, ts *ThermalSeries, fd Fidelity) error {
	scratch := transientPool.Get().(*transientScratch)
	defer transientPool.Put(scratch)
	cur := scratch.state(net.NumBlocks())

	// Class-level memoization: one dynamic-power evaluation per recurring
	// phase class, weighted by occupancy through the phases that share it.
	dynByClass := make([][microarch.NumStructures]float64, len(plan.Classes))
	for ci := range plan.Classes {
		dynByClass[ci] = pm.Dynamic(plan.Classes[ci].AF)
	}
	if ts.Intervals == nil {
		ts.Intervals = make([]ThermalInterval, 0, 4*len(plan.Phases))
	}

	var twDyn, twLeak, twSink, twDieAvg, twMaxT stats.TimeWeighted
	var blockP [microarch.NumStructures]float64
	tol := fd.ThermalTolK
	dtUS := initialCoarseStepUS
	steps := 0
	for pi := range plan.Phases {
		ph := &plan.Phases[pi]
		dyn := &dynByClass[ph.Class]
		remaining := ph.DurUS
		for remaining > 0 {
			if steps&(cancelCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			steps++
			dt := dtUS
			if dt > remaining {
				dt = remaining
			}
			net.CurrentInto(cur)
			var dynSum, leakSum float64
			for b := range blockP {
				leak := pm.LeakageActive(microarch.StructureID(b), cur.Blocks[b], ph.AF[b])
				blockP[b] = dyn[b] + leak
				dynSum += dyn[b]
				leakSum += leak
			}
			errK, applied := net.StepHeunErr(blockP[:], dt*1e-6, tol)
			if !applied {
				if dt > minCoarseStepUS {
					// Reject: halve and retry from the same state.
					dtUS = dt / 2
					continue
				}
				// At the step floor the error bound is unreachable;
				// advance anyway — the floor is 4× finer than the exact
				// loop's own step.
				net.StepHeunErr(blockP[:], dt*1e-6, 0)
			}
			remaining -= dt
			net.CurrentInto(cur)
			dieAvg := net.DieAverage(*cur)
			iv := ThermalInterval{DurUS: dt, AF: ph.AF, DieAvgTempK: dieAvg}
			copy(iv.TempK[:], cur.Blocks)
			ts.Intervals = append(ts.Intervals, iv)

			twDyn.Add(dynSum, dt)
			twLeak.Add(leakSum, dt)
			twSink.Add(cur.Sink, dt)
			twDieAvg.Add(dieAvg, dt)
			twMaxT.Add(cur.MaxBlock(), dt)
			for b := range cur.Blocks {
				if cur.Blocks[b] > ts.MaxTempK[b] {
					ts.MaxTempK[b] = cur.Blocks[b]
				}
			}
			if applied && errK < tol/4 && dtUS < maxCoarseStepUS {
				dtUS *= 2
			}
		}
	}
	// Worst-case analysis (§5.2) reads true per-sample activity maxima,
	// which phase means would understate — the plan preserves them.
	ts.MaxAF = plan.MaxAF
	finishTransientStats(ts, &twDyn, &twLeak, &twSink, &twDieAvg, &twMaxT)
	return nil
}

// finishTransientStats folds the time-weighted accumulators into the
// series aggregates (no-op on an empty run; the caller rejects those).
func finishTransientStats(ts *ThermalSeries, twDyn, twLeak, twSink, twDieAvg, twMaxT *stats.TimeWeighted) {
	if twMaxT.TotalTime() == 0 {
		return
	}
	ts.AvgDynamicW = twDyn.Mean()
	ts.AvgLeakageW = twLeak.Mean()
	ts.SinkTempK = twSink.Mean()
	ts.DieAvgTempK = twDieAvg.Mean()
	ts.AvgMaxStructTempK = twMaxT.Mean()
	ts.MaxStructTempK = twMaxT.Max()
	ts.MaxDieAvgTempK = twDieAvg.Max()
}

// AccumulateFIT is AccumulateFITContext without cancellation.
func AccumulateFIT(cfg Config, ts *ThermalSeries, tech scaling.Technology) (AppRun, error) {
	return AccumulateFITContext(context.Background(), cfg, ts, tech)
}

// AccumulateFITContext executes the reliability stage: it replays a
// thermal series through the RAMP failure models (Config.RAMP with unit
// proportionality constants) and assembles the complete AppRun. tech must
// be the technology point the series was produced at. The stage is orders
// of magnitude cheaper than the timing and thermal stages it consumes,
// which is what makes reliability-constant sweeps nearly free on a warm
// stage cache.
func AccumulateFITContext(ctx context.Context, cfg Config, ts *ThermalSeries,
	tech scaling.Technology) (AppRun, error) {
	_, sp := obs.StartSpan(ctx, obs.SpanFIT)
	if sp != nil {
		sp.SetAttr("tech", tech.Name)
		if ts != nil {
			sp.SetAttr("app", ts.App)
		}
		defer sp.Finish()
	}
	if err := cfg.Validate(); err != nil {
		return AppRun{}, err
	}
	if ts == nil || len(ts.Intervals) == 0 {
		return AppRun{}, fmt.Errorf("sim: empty thermal series")
	}
	if ts.TechName != tech.Name {
		return AppRun{}, fmt.Errorf("sim: thermal series is for %s, not %s", ts.TechName, tech.Name)
	}
	fp, err := floorplanFor(tech)
	if err != nil {
		return AppRun{}, err
	}
	set, err := cfg.MechanismSet()
	if err != nil {
		return AppRun{}, err
	}
	eval, err := core.NewEvaluatorForSet(cfg.RAMP, core.UnitConstants(), tech, fp.Areas(), set)
	if err != nil {
		return AppRun{}, err
	}
	run := AppRun{
		App:               ts.App,
		Suite:             ts.Suite,
		Tech:              tech,
		IPC:               ts.IPC,
		AppPowerScale:     ts.AppPowerScale,
		AvgDynamicW:       ts.AvgDynamicW,
		AvgLeakageW:       ts.AvgLeakageW,
		AvgTotalW:         ts.AvgDynamicW + ts.AvgLeakageW,
		SinkTempK:         ts.SinkTempK,
		DieAvgTempK:       ts.DieAvgTempK,
		AvgMaxStructTempK: ts.AvgMaxStructTempK,
		MaxStructTempK:    ts.MaxStructTempK,
		MaxDieAvgTempK:    ts.MaxDieAvgTempK,
		MaxAF:             ts.MaxAF,
		MaxTempK:          ts.MaxTempK,
	}
	for i := range ts.Intervals {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return AppRun{}, err
			}
		}
		iv := &ts.Intervals[i]
		eval.AccumulateInstant(iv.AF, iv.TempK, tech.VddV, iv.DieAvgTempK, iv.DurUS)
		if cfg.RecordThermalTrace {
			maxT := iv.TempK[0]
			for _, t := range iv.TempK[1:] {
				if t > maxT {
					maxT = t
				}
			}
			run.TempTraceK = append(run.TempTraceK, maxT)
		}
	}
	// Series-defined mechanisms (rainflow-counted thermal cycling) need the
	// whole die-average temperature trace rather than per-sample values:
	// evaluate each once over the run and fold its constant rate into the
	// average. The slices are built only when the selection includes one,
	// so the default four pay nothing here.
	if series := eval.Set().Series(); len(series) > 0 {
		dieAvg := make([]float64, len(ts.Intervals))
		durUS := make([]float64, len(ts.Intervals))
		for i := range ts.Intervals {
			dieAvg[i] = ts.Intervals[i].DieAvgTempK
			durUS[i] = ts.Intervals[i].DurUS
		}
		for _, sm := range series {
			eval.AddConstantRate(sm.Name(), sm.SeriesRate(dieAvg, durUS, cfg.RAMP))
		}
	}
	run.RawFIT = eval.Average()
	return run, nil
}
