// Package sim orchestrates the full evaluation pipeline of the paper
// (§4): the timing simulation of each workload on the base machine
// (activity factors and IPC), then — per technology point — the power
// model, the two-pass thermal methodology of §4.3 (steady-state heat-sink
// initialisation followed by a 1µs-granularity transient run), and the
// RAMP failure-rate accumulation, including the reliability-qualification
// calibration of §4.4 and the worst-case ("max") operating-point analysis
// of §5.2.
//
// A study runs as demand on the stage memos of a StageCache: each
// (profile × technology) cell asks for its FIT artifact, whose computation
// asks for the cell's thermal series, whose computation asks for the
// profile's timing trace, so concurrent studies share and join each
// other's stage work. The CPU-bound steps — timing runs, thermal
// transients, FIT accumulation, Monte Carlo batches — each hold a slot of
// the process-wide compute pool (internal/sched) while they run, so
// however many studies are in progress at most GOMAXPROCS of those steps
// run at once.
package sim

import (
	"context"
	"fmt"
	"math"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/floorplan"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/power"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/thermal"
	"github.com/ramp-sim/ramp/internal/trace"
	"github.com/ramp-sim/ramp/internal/workload"
)

// Config parameterises a study.
type Config struct {
	// Machine is the base 180nm processor (Table 2).
	Machine microarch.Config
	// Power holds the 180nm power calibration.
	Power power.Params
	// Thermal holds the package-stack constants.
	Thermal thermal.Params
	// RAMP holds the failure-mechanism constants.
	RAMP core.Params
	// Instructions is the trace length simulated per application.
	Instructions int64
	// QualFITPerMechanism is the per-mechanism suite-average FIT imposed
	// at reliability qualification (1000 in §4.4, for a 4000-FIT total).
	QualFITPerMechanism float64
	// CalibrateAppPower, when set, solves a per-application dynamic-power
	// factor at 180nm so each benchmark reproduces its Table 3 total
	// power, standing in for PowerTimer's circuit-level fidelity.
	CalibrateAppPower bool
	// RecordThermalTrace, when set, stores each run's per-interval
	// hottest-structure temperature in AppRun.TempTraceK (one sample per
	// 1µs interval) for small-thermal-cycle analysis (internal/cycles).
	RecordThermalTrace bool
	// Fidelity selects the speed/accuracy trade (nil means exact — the
	// bit-identical historical pipeline). A pointer with omitempty keeps
	// exact-mode configs, and hence every content-addressed key derived
	// from them, byte-identical to configs that predate the field.
	Fidelity *Fidelity `json:"Fidelity,omitempty"`
	// Mechanisms names the failure mechanisms evaluated, resolved against
	// the core registry (core.RegisteredMechanisms lists them). Nil or
	// empty means the paper's four (em/sm/tc/tddb) — and, with omitempty,
	// marshals byte-identically to configs that predate mechanism
	// selection, so every content-addressed key of an unspecified request
	// is preserved. Names are canonicalised (lower-cased, de-aliased,
	// sorted, de-duplicated) before any key derivation, so differently
	// ordered spellings of one set share cache entries.
	Mechanisms []string `json:"Mechanisms,omitempty"`
}

// DefaultConfig returns the paper's experimental setup with a trace length
// suitable for interactive runs.
func DefaultConfig() Config {
	return Config{
		Machine:             microarch.DefaultConfig(),
		Power:               power.DefaultParams(),
		Thermal:             thermal.DefaultParams(),
		RAMP:                core.DefaultParams(),
		Instructions:        2_000_000,
		QualFITPerMechanism: 1000,
		CalibrateAppPower:   true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return fmt.Errorf("sim: machine: %w", err)
	}
	if err := c.Power.Validate(); err != nil {
		return fmt.Errorf("sim: power: %w", err)
	}
	if err := c.Thermal.Validate(); err != nil {
		return fmt.Errorf("sim: thermal: %w", err)
	}
	if err := c.RAMP.Validate(); err != nil {
		return fmt.Errorf("sim: ramp: %w", err)
	}
	if c.Instructions <= 0 {
		return fmt.Errorf("sim: instructions must be positive, got %d", c.Instructions)
	}
	// Inverted comparison so a NaN target (which compares false both ways)
	// is rejected rather than flowing into the calibration solve.
	if !(c.QualFITPerMechanism > 0) || math.IsInf(c.QualFITPerMechanism, 0) {
		return fmt.Errorf("sim: qualification FIT must be positive and finite")
	}
	if err := c.Fidelity.Validate(); err != nil {
		return err
	}
	if _, err := core.CanonicalMechanismNames(c.Mechanisms); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// MechanismSet resolves the configured mechanism selection against the
// registry (the paper's four when Mechanisms is empty).
func (c Config) MechanismSet() (core.MechanismSet, error) {
	set, err := core.ResolveMechanismSet(c.Mechanisms)
	if err != nil {
		return core.MechanismSet{}, fmt.Errorf("sim: %w", err)
	}
	return set, nil
}

// ActivityTrace is the timing-simulation output for one application,
// reused across technology points (the paper keeps the microarchitecture
// and hence the activity behaviour fixed while remapping, §1.3).
type ActivityTrace struct {
	Profile workload.Profile
	Timing  microarch.Result
}

// RunTiming executes the timing stage for one workload profile.
func RunTiming(cfg Config, prof workload.Profile) (*ActivityTrace, error) {
	return RunTimingContext(context.Background(), cfg, prof)
}

// RunTimingContext is RunTiming with cancellation: the simulation aborts
// with ctx.Err() shortly after ctx is cancelled.
//
// Under phase fidelity the generated stream is systematically sampled
// (§4.5): a contiguous head of SampleHeadInstrs covers the cold-start
// transient in full, then one window of SampleWindowInstrs is simulated in
// detail out of every SamplePeriodInstrs, with the generator's O(1) Skip
// jumping the inter-window gaps — the timing stage does ~Window/Period of
// the exact work past the head. Exact and adaptive fidelity simulate the
// full stream.
func RunTimingContext(ctx context.Context, cfg Config, prof workload.Profile) (*ActivityTrace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := workload.New(prof, cfg.Instructions)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", prof.Name, err)
	}
	var stream trace.Stream = gen
	if fd := cfg.Fidelity.norm(); fd.Mode == FidelityPhase {
		sampler, err := trace.NewSystematicSampler(gen, trace.SamplerConfig{
			WindowInstrs: fd.SampleWindowInstrs,
			PeriodInstrs: fd.SamplePeriodInstrs,
			HeadInstrs:   fd.SampleHeadInstrs,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", prof.Name, err)
		}
		stream = sampler
	}
	return RunTimingStreamContext(ctx, cfg, prof, stream)
}

// RunTimingStream executes the timing stage over an arbitrary instruction
// stream — a trace file (trace.NewReader), a sampled stream
// (trace.NewSystematicSampler), or any other trace.Stream. prof supplies
// the workload's identity (name, suite, Table 3 targets) for reporting.
func RunTimingStream(cfg Config, prof workload.Profile, stream trace.Stream) (*ActivityTrace, error) {
	return RunTimingStreamContext(context.Background(), cfg, prof, stream)
}

// RunTimingStreamContext is RunTimingStream with cancellation, polled
// between instructions at a granularity that keeps the overhead invisible.
func RunTimingStreamContext(ctx context.Context, cfg Config, prof workload.Profile,
	stream trace.Stream) (*ActivityTrace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if stream == nil {
		return nil, fmt.Errorf("sim: %s: nil instruction stream", prof.Name)
	}
	ms, err := microarch.NewSimulator(cfg.Machine)
	if err != nil {
		return nil, err
	}
	// A sampling stream that can statistically warm the memory hierarchy
	// across skipped spans gets the simulator's caches to warm into.
	if w, ok := stream.(interface{ SetWarmer(trace.MemWarmer) }); ok {
		w.SetWarmer(ms)
	}
	res, err := ms.Run(&cancellableStream{ctx: ctx, src: trace.Batches(stream)})
	if err != nil {
		return nil, fmt.Errorf("sim: %s: timing: %w", prof.Name, err)
	}
	if len(res.Samples) == 0 {
		return nil, fmt.Errorf("sim: %s: timing produced no activity samples", prof.Name)
	}
	return &ActivityTrace{Profile: prof, Timing: res}, nil
}

// cancellableStream forwards a trace.Stream in batches of at most
// cancelCheckInterval instructions, surfacing ctx cancellation as a stream
// error before each batch. The microarch simulator stops on the first
// stream error, so a cancelled timing run unwinds within one batch and
// errors.Is(err, context.Canceled) holds through the wrapping.
type cancellableStream struct {
	ctx context.Context
	src trace.BatchStream
}

func (s *cancellableStream) NextBatch(buf []trace.Instruction) (int, error) {
	if err := s.ctx.Err(); err != nil {
		return 0, err
	}
	return s.src.NextBatch(buf[:min(len(buf), cancelCheckInterval)])
}

func (s *cancellableStream) Next() (trace.Instruction, error) {
	if err := s.ctx.Err(); err != nil {
		return trace.Instruction{}, err
	}
	return s.src.Next()
}

// AppRun is the evaluation of one application at one technology point. FIT
// values are raw (unit proportionality constants) until scaled by the
// study-level calibration.
type AppRun struct {
	// App and Suite identify the workload.
	App   string
	Suite workload.Suite
	// Tech is the technology point evaluated.
	Tech scaling.Technology
	// IPC is the timing result (technology independent).
	IPC float64
	// AvgDynamicW, AvgLeakageW, AvgTotalW are time-averaged chip powers.
	AvgDynamicW, AvgLeakageW, AvgTotalW float64
	// AppPowerScale is the per-application dynamic calibration factor used.
	AppPowerScale float64
	// MaxStructTempK is the hottest instantaneous structure temperature
	// (Figure 2's quantity).
	MaxStructTempK float64
	// AvgMaxStructTempK is the time-average of the hottest structure.
	AvgMaxStructTempK float64
	// SinkTempK is the time-averaged heat-sink temperature.
	SinkTempK float64
	// DieAvgTempK is the time-averaged area-weighted die temperature.
	DieAvgTempK float64
	// MaxAF and MaxTempK hold per-structure maxima over the run, feeding
	// the worst-case operating-point analysis (§5.2).
	MaxAF, MaxTempK [microarch.NumStructures]float64
	// MaxDieAvgTempK is the maximum instantaneous die-average temperature.
	MaxDieAvgTempK float64
	// RawFIT is the time-averaged failure-rate breakdown with unit
	// proportionality constants.
	RawFIT core.Breakdown
	// TempTraceK holds the per-interval hottest-structure temperature when
	// Config.RecordThermalTrace is set; nil otherwise.
	TempTraceK []float64
}

// EvaluateTech runs the power/thermal/reliability pipeline for one
// activity trace at one technology point.
//
// sinkTempTargetK, when positive, adjusts the heat-sink resistance so the
// steady-state sink temperature matches it (the paper holds each
// application's sink temperature constant across technologies, §4.3).
// appPowerScale is the per-application dynamic-power calibration factor
// (1 to disable).
func EvaluateTech(cfg Config, tr *ActivityTrace, tech scaling.Technology,
	sinkTempTargetK, appPowerScale float64) (AppRun, error) {
	return EvaluateTechContext(context.Background(), cfg, tr, tech, sinkTempTargetK, appPowerScale)
}

// EvaluateTechContext is EvaluateTech with cancellation: the transient loop
// polls ctx every few hundred intervals and aborts with ctx.Err(). The
// evaluation is pure with respect to the trace (the trace is only read), so
// any number of EvaluateTechContext calls may share one ActivityTrace
// concurrently.
//
// Internally the evaluation runs as two explicitly keyed stages — the
// power+thermal transient (RunThermalContext) followed by the reliability
// accumulation (AccumulateFITContext). Composing them here is numerically
// identical to the historical fused loop; the split exists so the stage
// cache can reuse each half independently.
func EvaluateTechContext(ctx context.Context, cfg Config, tr *ActivityTrace, tech scaling.Technology,
	sinkTempTargetK, appPowerScale float64) (AppRun, error) {
	ts, err := RunThermalContext(ctx, cfg, tr, tech, sinkTempTargetK, appPowerScale)
	if err != nil {
		return AppRun{}, err
	}
	return AccumulateFITContext(ctx, cfg, ts, tech)
}

// floorplanFor returns the POWER4 floorplan scaled to a technology point.
func floorplanFor(tech scaling.Technology) (floorplan.Floorplan, error) {
	return floorplan.POWER4().Scaled(tech.RelArea)
}

// SolveOperatingPoint iterates the leakage-temperature fixed point for the
// whole-run average activity, optionally re-solving the sink resistance so
// the steady sink temperature hits the target (pass 1 of the paper's §4.3
// methodology). It leaves the network's sink resistance set and returns
// the steady state. Exposed for alternative evaluation loops such as the
// dynamic reliability manager (internal/drm).
func SolveOperatingPoint(pm *power.Model, net *thermal.Network,
	avgAF [microarch.NumStructures]float64, sinkTempTargetK float64) (thermal.State, error) {
	var temps [microarch.NumStructures]float64
	for i := range temps {
		temps[i] = 355
	}
	var steady thermal.State
	for iter := 0; iter < 60; iter++ {
		blockP, total := pm.Total(avgAF, temps)
		if sinkTempTargetK > 0 {
			r := (sinkTempTargetK - net.Ambient()) / total
			if r <= 0 {
				return thermal.State{}, fmt.Errorf("sink target %vK at/below ambient", sinkTempTargetK)
			}
			if err := net.SetSinkR(r); err != nil {
				return thermal.State{}, err
			}
		}
		next, err := net.SteadyState(blockP[:])
		if err != nil {
			return thermal.State{}, err
		}
		var maxDelta float64
		for i := range temps {
			if !IsReasonableTemp(next.Blocks[i]) {
				return thermal.State{}, fmt.Errorf(
					"thermal runaway at %.0fW: temperature diverged (cooling insufficient "+
						"for this configuration; lower the power or the sink resistance)", total)
			}
			d := math.Abs(next.Blocks[i] - temps[i])
			if d > maxDelta {
				maxDelta = d
			}
			// Damped update for stable convergence of the exponential
			// leakage feedback.
			temps[i] = float64(0.5*temps[i]) + float64(0.5*next.Blocks[i])
		}
		steady = next
		if maxDelta < 1e-4 {
			return steady, nil
		}
	}
	return steady, fmt.Errorf("operating point did not converge")
}

// IsReasonableTemp rejects non-finite and physically absurd junction
// temperatures (the leakage feedback diverges past ~500K anyway). Shared
// by the CMP solver in internal/multicore.
func IsReasonableTemp(tK float64) bool {
	return !math.IsNaN(tK) && tK > 0 && tK < 1000
}
