// Package ramp is the public API of RAMP-Scale, a reproduction of
// "The Impact of Technology Scaling on Lifetime Reliability" (Srinivasan,
// Adve, Bose, Rivers — DSN 2004).
//
// The library models the lifetime reliability of a POWER4-like out-of-order
// processor across CMOS technology generations (180nm → 65nm). It couples:
//
//   - a trace-driven timing simulator producing per-structure activity
//     factors and IPC for 16 SPEC2K-like synthetic workloads,
//   - a PowerTimer-like power model (dynamic with realistic clock gating,
//     plus temperature-dependent leakage),
//   - a HotSpot-like lumped-RC thermal model with the paper's two-pass
//     heat-sink initialisation, and
//   - the RAMP failure models — electromigration, stress migration,
//     gate-oxide breakdown (TDDB), and thermal cycling — combined with the
//     sum-of-failure-rates model and the paper's scaling extensions.
//
// # Quickstart
//
//	runner, err := ramp.New()
//	if err != nil { ... }
//	res, err := runner.Study(context.Background(), ramp.DefaultConfig(),
//		ramp.Profiles(), ramp.Technologies())
//	if err != nil { ... }
//	for ti := range res.Techs {
//		fmt.Printf("%s: avg FIT %.0f\n", res.Techs[ti].Name,
//			res.SuiteAverageFIT(ti, 0))
//	}
//
// A Runner fixes the execution policy once — parallelism, progress,
// metrics, and the content-addressed stage cache that makes repeated
// studies incremental (ramp.WithCache) — and its StreamStudy method
// yields per-cell results while the study is still running.
//
// See the examples directory for complete programs, and DESIGN.md for the
// system inventory and the experiment index.
package ramp

import (
	"context"
	"io"

	"github.com/ramp-sim/ramp/internal/aging"
	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/cycles"
	"github.com/ramp-sim/ramp/internal/drm"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/multicore"
	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/report"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/scenario"
	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/stats"
	"github.com/ramp-sim/ramp/internal/trace"
	"github.com/ramp-sim/ramp/internal/workload"
)

// Core result and configuration types, re-exported for API stability.
type (
	// Config parameterises a study: machine, power, thermal, and
	// reliability constants, trace length, and calibration policy.
	Config = sim.Config
	// StudyResult is the complete output of RunStudy.
	StudyResult = sim.StudyResult
	// AppRun is one application evaluated at one technology point.
	AppRun = sim.AppRun
	// ActivityTrace is the timing-simulation output for one application.
	ActivityTrace = sim.ActivityTrace
	// StudyOptions tunes study execution (parallelism bound, progress
	// callback) without affecting numerics.
	StudyOptions = sim.StudyOptions
	// StudyProgress is one task-completion event of a running study.
	StudyProgress = sched.Progress
	// WorstCase is the worst-case ("max") operating-point evaluation.
	WorstCase = sim.WorstCase
	// Fidelity selects the speed/accuracy trade of a study (nil/zero
	// means exact); see FidelityExact, FidelityAdaptive, FidelityPhase.
	Fidelity = sim.Fidelity
	// FidelityMode names one fidelity level.
	FidelityMode = sim.FidelityMode
	// Technology is one Table 4 technology generation/operating point.
	Technology = scaling.Technology
	// Profile is one synthetic SPEC2K-like benchmark description.
	Profile = workload.Profile
	// Suite distinguishes SpecInt from SpecFP benchmarks.
	Suite = workload.Suite
	// Breakdown is a per-structure, per-mechanism FIT decomposition.
	Breakdown = core.Breakdown
	// Constants are the per-mechanism proportionality constants from
	// reliability qualification.
	Constants = core.Constants
	// Mechanism identifies one intrinsic failure mechanism.
	//
	// Deprecated: Mechanism indexes only the paper's four fixed-slot
	// mechanisms. Registry-selected mechanisms are addressed by canonical
	// name (MechanismInfo.Name); use the Mech* name constants instead.
	Mechanism = core.Mechanism
	// MechanismParams bundles the failure-model constants.
	MechanismParams = core.Params
	// MechanismModel is one pluggable failure mechanism behind the
	// registry: a raw instantaneous rate with technology-scaling and
	// qualification-calibration hooks.
	MechanismModel = core.MechanismModel
	// MechanismInfo describes one registered mechanism for discovery.
	MechanismInfo = core.MechanismInfo
	// MechanismSet is a resolved, ordered mechanism selection.
	MechanismSet = core.MechanismSet
	// MachineConfig describes the simulated processor (Table 2).
	MachineConfig = microarch.Config
	// StructureID names one of the 7 modeled microarchitectural
	// structures.
	StructureID = microarch.StructureID
	// Table is a renderable result table (text or CSV).
	Table = report.Table
	// Chart renders numeric series as an ASCII line chart.
	Chart = report.Chart
	// ChartSeries is one named line of a chart.
	ChartSeries = report.Series
	// Headline holds the paper's quoted summary numbers computed from a
	// study.
	Headline = report.Headline

	// Lifetime-distribution extension (relaxing SOFR's constant-rate
	// assumption, §2).

	// Distribution models a lifetime distribution parameterised by mean.
	Distribution = core.Distribution
	// Exponential is the SOFR constant-rate assumption.
	Exponential = core.Exponential
	// Weibull models wear-out with a growing hazard rate (Shape > 1).
	Weibull = core.Weibull
	// Lognormal is the classical electromigration lifetime distribution.
	Lognormal = core.Lognormal
	// LifetimeModel assigns a distribution to each failure mechanism.
	LifetimeModel = core.LifetimeModel
	// LifetimeEstimate summarises a Monte Carlo lifetime experiment.
	LifetimeEstimate = core.LifetimeEstimate
	// MCConfig parameterises a Monte Carlo lifetime study: replica count,
	// lifetime model, percentile set, CI level, and root seed.
	MCConfig = sim.MCConfig
	// MCResult is the complete output of Runner.MCStudy: one summarised
	// lifetime distribution per (application × technology) cell.
	MCResult = sim.MCResult
	// MCCell is one cell's Monte Carlo lifetime summary.
	MCCell = sim.MCCell
	// MCPercentile is one estimated lifetime percentile with its
	// confidence interval.
	MCPercentile = sim.MCPercentile
	// MCEvent is one incremental estimate of a running Monte Carlo study.
	MCEvent = sim.MCEvent
	// Interval is a two-sided confidence interval (years).
	Interval = stats.Interval

	// Dynamic reliability management (the paper's §5.2 response).

	// DRMPolicy configures the dynamic reliability controller.
	DRMPolicy = drm.Policy
	// DRMResult summarises a DRM-managed run.
	DRMResult = drm.Result
	// OperatingPoint is one rung of a DVS ladder.
	OperatingPoint = drm.OperatingPoint
	// RemapAdvice is the per-technology derating requirement for a FIT
	// budget.
	RemapAdvice = drm.RemapAdvice

	// Chip-multiprocessor extension.

	// CMPConfig parameterises a tiled multi-core evaluation.
	CMPConfig = multicore.Config
	// CMPDRMConfig attaches per-core dynamic reliability management to a
	// CMP evaluation.
	CMPDRMConfig = multicore.DRMConfig
	// CMPResult is a whole-chip multi-core evaluation.
	CMPResult = multicore.Result
	// CMPCoreResult summarises one core of a multi-core evaluation.
	CMPCoreResult = multicore.CoreResult

	// Small-thermal-cycle analysis (the §2 open problem, measured).

	// ThermalCycle is one rainflow-counted temperature cycle.
	ThermalCycle = cycles.Cycle
	// CycleParams configures the small-cycle damage index.
	CycleParams = cycles.Params
	// CycleSummary aggregates a rainflow analysis.
	CycleSummary = cycles.Summary

	// Duty-schedule aging projection (Miner's rule).

	// AgingPhase is one recurring segment of a daily duty schedule.
	AgingPhase = aging.Phase
	// AgingSchedule is a repeating daily duty cycle.
	AgingSchedule = aging.Schedule
	// AgingProjection is the lifetime forecast for a schedule.
	AgingProjection = aging.Projection
	// AgingWhatIf ranks per-phase mitigations by lifetime gained.
	AgingWhatIf = aging.WhatIfResult

	// Scenario is a JSON experiment specification: workloads, technology
	// points, trace length, and model overrides.
	Scenario = scenario.Spec
	// ScenarioOverrides are the supported model modifications.
	ScenarioOverrides = scenario.Overrides

	// Execution tracing (Runner option WithTracer).

	// Tracer creates spans around pipeline stages and fans the completed
	// spans out to a SpanSink. Install one on a Runner with WithTracer.
	Tracer = obs.Tracer
	// Span is one timed operation of a traced study (a pipeline stage, a
	// grid cell, a cache lookup, a compute-pool slot hold), with its
	// parent link and attributes.
	Span = obs.Span
	// SpanAttr is one key/value annotation on a span.
	SpanAttr = obs.Attr
	// SpanSink receives completed spans; implement it to stream spans into
	// a custom backend.
	SpanSink = obs.SpanSink
	// TraceCollector is a SpanSink buffering completed spans in memory for
	// export (e.g. via WriteChromeTrace).
	TraceCollector = obs.Collector

	// Trace interchange ("bring your own trace").

	// Instruction is one decoded instruction of a trace.
	Instruction = trace.Instruction
	// InstructionClass is the functional class of an instruction.
	InstructionClass = trace.Class
	// Stream produces instructions one at a time (io.EOF at end).
	Stream = trace.Stream
	// TraceReader decodes the binary trace file format as a Stream.
	TraceReader = trace.Reader
	// TraceWriter serialises instructions to the binary trace format.
	TraceWriter = trace.Writer
	// SamplerConfig parameterises systematic trace sampling (§4.5).
	SamplerConfig = trace.SamplerConfig
	// SystematicSampler filters a Stream down to periodic windows.
	SystematicSampler = trace.SystematicSampler
)

// Failure mechanisms (paper §2).
const (
	EM   = core.EM
	SM   = core.SM
	TDDB = core.TDDB
	TC   = core.TC
	// NumMechanisms is the number of modeled failure mechanisms.
	NumMechanisms = core.NumMechanisms
)

// Canonical mechanism names accepted by Config.Mechanisms,
// WithMechanisms, and the server's mechanism selection. The paper's four
// (em/sm/tc/tddb) are the default set; nbti, hci, and tc-rainflow are
// post-2004 registry additions.
const (
	MechEM         = core.MechEM
	MechSM         = core.MechSM
	MechTDDB       = core.MechTDDB
	MechTC         = core.MechTC
	MechNBTI       = core.MechNBTI
	MechHCI        = core.MechHCI
	MechTCRainflow = core.MechTCRainflow
)

// RegisteredMechanisms returns discovery metadata for every failure
// mechanism in the registry, sorted by name: the paper's four plus any
// additions, with parameter descriptions and default-set membership.
func RegisteredMechanisms() []MechanismInfo { return core.RegisteredMechanisms() }

// DefaultMechanismNames returns the canonical names of the paper's four
// mechanisms — the set evaluated when a Config names none.
func DefaultMechanismNames() []string { return core.DefaultMechanismNames() }

// CanonicalMechanismNames canonicalises a mechanism-name list —
// lower-cased, de-aliased, sorted, de-duplicated, nil for the default
// set — rejecting unknown names. Use it to validate flag or API input
// before building a Config.
func CanonicalMechanismNames(names []string) ([]string, error) {
	return core.CanonicalMechanismNames(names)
}

// RegisterMechanism adds a custom failure-mechanism model to the process
// registry under its canonical name, making it selectable by every
// Config.Mechanisms list. Registration is global and must happen before
// studies run (typically from an init function); registering a name twice
// is an error.
func RegisterMechanism(m MechanismModel) error { return core.RegisterMechanism(m) }

// Benchmark suites.
const (
	SuiteInt = workload.SuiteInt
	SuiteFP  = workload.SuiteFP
)

// Fidelity modes: exact is the bit-identical full pipeline; adaptive
// phase-compresses the thermal transient under an error bound; phase adds
// systematic trace sampling on top. Non-exact modes are content-addressed
// into every stage and result cache key, so results from different modes
// never mix.
const (
	FidelityExact    = sim.FidelityExact
	FidelityAdaptive = sim.FidelityAdaptive
	FidelityPhase    = sim.FidelityPhase
)

// ParseFidelityMode validates a fidelity-mode name from a flag or API
// request; it returns nil (meaning exact) for "" and "exact" so
// exact-mode configs keep their pre-fidelity cache keys.
func ParseFidelityMode(mode string) (*Fidelity, error) { return sim.ParseFidelityMode(mode) }

// DefaultConfig returns the paper's experimental setup (Table 2 machine,
// calibrated 180nm power model, HotSpot-like package, RAMP constants).
func DefaultConfig() Config { return sim.DefaultConfig() }

// Profiles returns the 16 SPEC2K benchmark profiles of Table 3 (8 SpecFP
// followed by 8 SpecInt).
func Profiles() []Profile { return workload.Profiles() }

// ProfileByName returns one benchmark profile.
func ProfileByName(name string) (Profile, error) { return workload.ByName(name) }

// Technologies returns the five Table 4 technology points in scaling
// order: 180nm, 130nm, 90nm, 65nm (0.9V), 65nm (1.0V).
func Technologies() []Technology { return scaling.Generations() }

// TechnologyByName returns one technology point by its figure label.
func TechnologyByName(name string) (Technology, error) { return scaling.ByName(name) }

// BaseTechnology returns the 180nm calibration anchor.
func BaseTechnology() Technology { return scaling.Base() }

// ReferenceConstants returns the qualification constants solved with the
// default configuration (suite-average 1000 FIT per mechanism at 180nm).
// Use them to convert a single application's raw breakdown into absolute
// FIT values without re-running the full study; re-calibrate through
// RunStudy when any model parameter changes.
func ReferenceConstants() Constants { return core.ReferenceConstants() }

// RunStudy executes the complete scaling study: timing simulation per
// profile, reliability qualification at 180nm, evaluation at every
// technology point, and the worst-case analysis. The first technology must
// be 180nm.
//
// Deprecated: use ramp.New followed by Runner.Study, which adds
// cancellation, an execution policy, and stage caching. RunStudy remains a
// thin, supported wrapper.
func RunStudy(cfg Config, profiles []Profile, techs []Technology) (*StudyResult, error) {
	return sim.RunStudy(cfg, profiles, techs)
}

// RunStudyContext is RunStudy with cancellation, bounded parallelism, and
// progress reporting. The study runs as demand: each (profile ×
// technology) cell asks for its FIT artifact, whose computation asks for
// the cell's thermal series, whose computation asks for the profile's
// timing trace, and a profile's scaled cells start the moment its own base
// cell lands. The CPU-bound steps run on the process-wide compute pool.
// Results are bit-identical at every parallelism level.
//
// Deprecated: use ramp.New with WithParallelism/WithProgress/WithCache
// followed by Runner.Study; StudyOptions is the internal
// carrier of the same knobs. RunStudyContext remains a thin, supported
// wrapper.
func RunStudyContext(ctx context.Context, cfg Config, profiles []Profile,
	techs []Technology, opts StudyOptions) (*StudyResult, error) {
	return sim.RunStudyContext(ctx, cfg, profiles, techs, opts)
}

// RunTiming executes only the timing stage for one profile; the returned
// trace can be evaluated at several technology points with EvaluateTech.
func RunTiming(cfg Config, prof Profile) (*ActivityTrace, error) {
	return sim.RunTiming(cfg, prof)
}

// RunTimingContext is RunTiming with cancellation.
func RunTimingContext(ctx context.Context, cfg Config, prof Profile) (*ActivityTrace, error) {
	return sim.RunTimingContext(ctx, cfg, prof)
}

// RunTimings executes the timing stage for several profiles on a bounded
// worker pool, returning traces in input order.
func RunTimings(ctx context.Context, cfg Config, profiles []Profile,
	opts StudyOptions) ([]*ActivityTrace, error) {
	return sim.RunTimings(ctx, cfg, profiles, opts)
}

// RunTimingStream executes the timing stage over an arbitrary instruction
// stream — a trace file (NewTraceReader), a sampled stream
// (NewSystematicSampler), or a custom Stream. prof supplies the workload
// identity for reporting.
func RunTimingStream(cfg Config, prof Profile, stream Stream) (*ActivityTrace, error) {
	return sim.RunTimingStream(cfg, prof, stream)
}

// NewTracer builds a span tracer fanning completed spans out to sink.
func NewTracer(sink SpanSink) *Tracer { return obs.NewTracer(sink) }

// NewTraceCollector returns a SpanSink retaining at most max completed
// spans in completion order (0 = unbounded).
func NewTraceCollector(max int) *TraceCollector { return obs.NewCollector(max) }

// WriteChromeTrace serialises spans as a Chrome trace-event JSON document,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []*Span) error { return obs.WriteChromeTrace(w, spans) }

// NewTraceReader opens a binary trace file stream.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// NewTraceWriter creates a binary trace file writer.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) { return trace.NewWriter(w) }

// NewSystematicSampler wraps a stream with the §4.5 systematic-sampling
// methodology: one window of WindowInstrs kept out of every PeriodInstrs.
func NewSystematicSampler(src Stream, cfg SamplerConfig) (*SystematicSampler, error) {
	return trace.NewSystematicSampler(src, cfg)
}

// NewWorkloadStream builds the synthetic instruction generator for a
// profile, producing n instructions (n <= 0 for unbounded).
func NewWorkloadStream(prof Profile, n int64) (Stream, error) {
	return workload.New(prof, n)
}

// EvaluateTech evaluates one activity trace at one technology point.
// sinkTempTargetK > 0 holds the heat-sink temperature at that value by
// scaling the sink resistance (the paper's §4.3 methodology);
// appPowerScale is a per-application dynamic-power calibration factor
// (use 1 to disable).
func EvaluateTech(cfg Config, tr *ActivityTrace, tech Technology,
	sinkTempTargetK, appPowerScale float64) (AppRun, error) {
	return sim.EvaluateTech(cfg, tr, tech, sinkTempTargetK, appPowerScale)
}

// EvaluateTechContext is EvaluateTech with cancellation. Evaluations only
// read the trace, so any number may share one ActivityTrace concurrently.
func EvaluateTechContext(ctx context.Context, cfg Config, tr *ActivityTrace, tech Technology,
	sinkTempTargetK, appPowerScale float64) (AppRun, error) {
	return sim.EvaluateTechContext(ctx, cfg, tr, tech, sinkTempTargetK, appPowerScale)
}

// Report builders for the paper's artifacts.

// Table1 returns the qualitative scaling-impact summary (paper Table 1).
func Table1() *Table { return report.Table1() }

// Table1Quantified evaluates the Table 1 sensitivities numerically at a
// reference temperature: FIT multipliers per +10K, per +5% voltage, and
// for the full 180nm→65nm feature-size scaling.
func Table1Quantified(params MechanismParams, refTempK float64) (*Table, error) {
	return report.Table1Quantified(params, refTempK)
}

// Table2 returns the base-processor configuration (paper Table 2).
func Table2(cfg MachineConfig) *Table { return report.Table2(cfg) }

// Table3 returns per-application IPC and 180nm power (paper Table 3).
func Table3(res *StudyResult) (*Table, error) { return report.Table3(res) }

// Table4 returns the scaled technology parameters with measured powers
// (paper Table 4).
func Table4(res *StudyResult) (*Table, error) { return report.Table4(res) }

// Figure2 returns the max-structure-temperature series (paper Figure 2).
func Figure2(res *StudyResult, suite Suite) (*Table, error) { return report.Figure2(res, suite) }

// Figure3 returns the total-FIT series with the worst-case curve (paper
// Figure 3).
func Figure3(res *StudyResult, suite Suite) (*Table, error) { return report.Figure3(res, suite) }

// Figure4 returns the suite-average per-mechanism FIT series (paper
// Figure 4).
func Figure4(res *StudyResult, suite Suite) (*Table, error) { return report.Figure4(res, suite) }

// Figure5 returns one mechanism's per-application FIT series (paper
// Figure 5).
func Figure5(res *StudyResult, suite Suite, m Mechanism) (*Table, error) {
	return report.Figure5(res, suite, m)
}

// ComputeHeadline derives the paper's quoted summary numbers (§1.3, §5)
// from a full study.
func ComputeHeadline(res *StudyResult) (*Headline, error) { return report.ComputeHeadline(res) }

// StructureBreakdown returns the per-structure FIT decomposition of one
// application at one technology index — which microarchitectural units
// dominate the failure rate.
func StructureBreakdown(res *StudyResult, ti int, app string) (*Table, error) {
	return report.StructureBreakdown(res, ti, app)
}

// MechanismCurves tabulates each mechanism's relative FIT over a
// temperature sweep at a technology point, normalised at the first
// temperature.
func MechanismCurves(params MechanismParams, tech Technology, tempsK []float64) (*Table, error) {
	return report.MechanismCurves(params, tech, tempsK)
}

// ChartFromTable converts a figure table (label column plus one value
// column per technology) into an ASCII chart.
func ChartFromTable(t *Table) (*Chart, error) { return report.ChartFromTable(t) }

// WriteJSON encodes a study result as an indented JSON document from
// which every figure can be regenerated externally.
func WriteJSON(w io.Writer, res *StudyResult) error { return report.WriteJSON(w, res) }

// SOFRLifetimes returns the SOFR assumption: exponential lifetimes for
// every mechanism.
func SOFRLifetimes() LifetimeModel { return core.SOFRLifetimes() }

// WearOutLifetimes returns a JEDEC-flavoured wear-out assignment:
// lognormal EM, Weibull SM/TC/TDDB.
func WearOutLifetimes() LifetimeModel { return core.WearOutLifetimes() }

// MonteCarloLifetime estimates the processor lifetime distribution for a
// calibrated breakdown under per-mechanism lifetime distributions,
// quantifying the error of the SOFR constant-rate assumption (§2).
//
// Deprecated: use Runner.MCStudy, which samples the whole study grid in
// parallel with per-replica seeded streams and confidence intervals. This
// shim forwards to the same serial sampler and remains numerically stable
// for a pinned seed.
func MonteCarloLifetime(b Breakdown, model LifetimeModel, samples int, seed int64) (LifetimeEstimate, error) {
	return core.MonteCarloLifetime(b, model, samples, seed)
}

// Rainflow counts the thermal cycles in a temperature series (ASTM
// E1049). Record a series with Config.RecordThermalTrace.
func Rainflow(series []float64) []ThermalCycle { return cycles.Rainflow(series) }

// AnalyzeCycles runs rainflow counting over a temperature series spanning
// durationSeconds and returns the small-cycle damage summary.
func AnalyzeCycles(series []float64, durationSeconds float64, p CycleParams) (CycleSummary, error) {
	return cycles.Analyze(series, durationSeconds, p)
}

// DefaultCycleParams returns the package Coffin-Manson exponent with a
// 0.1K noise floor.
func DefaultCycleParams() CycleParams { return cycles.DefaultParams() }

// LoadScenario parses a JSON experiment specification.
func LoadScenario(r io.Reader) (Scenario, error) { return scenario.Load(r) }

// LoadScenarioFile loads a JSON experiment specification from a file.
func LoadScenarioFile(path string) (Scenario, error) { return scenario.LoadFile(path) }

// ProjectAging computes the Miner's-rule lifetime forecast for a daily
// duty schedule of calibrated failure rates.
func ProjectAging(s AgingSchedule) (AgingProjection, error) { return aging.Project(s) }

// AgingMitigations ranks the schedule's phases by lifetime gained when
// each phase's failure rate is scaled by factor (e.g. 0.5).
func AgingMitigations(s AgingSchedule, factor float64) ([]AgingWhatIf, error) {
	return aging.WhatIf(s, factor)
}

// DefaultLadder returns a five-rung DVS ladder topping out at the
// technology's nominal qualification point.
func DefaultLadder(tech Technology) []OperatingPoint { return drm.DefaultLadder(tech) }

// RunDRM executes a DRM-managed evaluation of an activity trace: a
// feedback controller walks the DVS ladder each epoch so the cumulative
// failure rate tracks the qualified budget.
func RunDRM(cfg Config, tr *ActivityTrace, tech Technology, consts Constants,
	pol DRMPolicy, sinkTempTargetK, appPowerScale float64) (DRMResult, error) {
	return drm.Run(cfg, tr, tech, consts, pol, sinkTempTargetK, appPowerScale)
}

// AdviseRemap reports, per technology point, the fastest below-nominal
// DVS operating point at which the workload stays within the FIT budget —
// the derating schedule behind the paper's "single design, multiple
// remaps" warning.
func AdviseRemap(cfg Config, tr *ActivityTrace, techs []Technology, consts Constants,
	budgetFIT, sinkTempTargetK, appPowerScale float64) ([]RemapAdvice, error) {
	return drm.AdviseRemap(cfg, tr, techs, consts, budgetFIT, sinkTempTargetK, appPowerScale)
}

// EvaluateCMP runs a tiled chip-multiprocessor evaluation: traces[i]
// starts on core i; with cfg.MigrateIntervals > 0 the assignment rotates
// periodically (activity migration). appPowerScales may be nil.
func EvaluateCMP(cfg CMPConfig, traces []*ActivityTrace, tech Technology,
	sinkTempTargetK float64, appPowerScales []float64) (CMPResult, error) {
	return multicore.Evaluate(cfg, traces, tech, sinkTempTargetK, appPowerScales)
}

// EvaluateCMPContext is EvaluateCMP with cancellation.
func EvaluateCMPContext(ctx context.Context, cfg CMPConfig, traces []*ActivityTrace, tech Technology,
	sinkTempTargetK float64, appPowerScales []float64) (CMPResult, error) {
	return multicore.EvaluateContext(ctx, cfg, traces, tech, sinkTempTargetK, appPowerScales)
}
