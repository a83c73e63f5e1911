package sim

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/store"
	"github.com/ramp-sim/ramp/internal/workload"
)

// WorstCase is the worst-case ("max") operating-point evaluation of §5.2
// for one technology: the highest per-structure activity factor and
// temperature seen by any application, applied steady-state.
type WorstCase struct {
	Tech scaling.Technology
	// MaxAF and MaxTempK are the suite-wide per-structure maxima.
	MaxAF, MaxTempK [microarch.NumStructures]float64
	// MaxDieAvgTempK is the suite-wide maximum die-average temperature.
	MaxDieAvgTempK float64
	// RawFIT is the worst-case breakdown with unit constants.
	RawFIT core.Breakdown
}

// StudyResult is the full output of a scaling study.
type StudyResult struct {
	// Config echoes the configuration used.
	Config Config
	// Techs lists the technology points evaluated, in input order.
	Techs []scaling.Technology
	// Apps holds one entry per (application × technology), grouped by
	// technology in Techs order, applications in input order.
	Apps []AppRun
	// Worst holds the worst-case evaluation per technology, aligned with
	// Techs.
	Worst []WorstCase
	// Constants is the reliability-qualification calibration solved at
	// the base technology (§4.4).
	Constants core.Constants
}

// FIT returns the calibrated failure-rate breakdown for an application run.
func (r *StudyResult) FIT(a AppRun) core.Breakdown {
	return a.RawFIT.Calibrated(r.Constants)
}

// WorstFIT returns the calibrated worst-case breakdown for a technology
// index.
func (r *StudyResult) WorstFIT(i int) core.Breakdown {
	return r.Worst[i].RawFIT.Calibrated(r.Constants)
}

// AppsAt returns the application runs for one technology index.
func (r *StudyResult) AppsAt(i int) []AppRun {
	var out []AppRun
	for _, a := range r.Apps {
		if a.Tech.Name == r.Techs[i].Name {
			out = append(out, a)
		}
	}
	return out
}

// Stage labels of a study's work, as reported through
// StudyOptions.OnProgress and on the compute pool's slot spans.
const (
	// StageTiming is the per-profile timing simulation.
	StageTiming = "timing"
	// StageBase is the per-profile 180nm evaluation with power calibration.
	StageBase = "base"
	// StageQualify is the single reliability-qualification solve (§4.4).
	StageQualify = "qualify"
	// StageScaled is one (profile × non-base technology) evaluation.
	StageScaled = "scaled"
	// StageWorst is the per-technology worst-case analysis (§5.2).
	StageWorst = "worst"
)

// StudyOptions tunes the execution of a study without affecting its
// numerics: any parallelism — and any stage-cache state — produces
// bit-identical results.
type StudyOptions struct {
	// Parallelism bounds how many of the study's (profile × technology)
	// cells are in progress at once. Values < 1 leave the bound to the
	// process-wide compute pool (sched.Default, GOMAXPROCS slots), which
	// runs the CPU-bound work of every study in the process.
	Parallelism int
	// OnProgress, when non-nil, receives one completion event per task:
	// a timing and a base event per profile when its base cell lands, a
	// scaled event per other cell, one qualify event and one worst event
	// per technology. It is called from the study's goroutines and must
	// be safe for concurrent use.
	OnProgress func(sched.Progress)
	// Cache, when non-nil, memoises the study's stages content-addressed:
	// timing per profile, thermal series per (profile × technology), and
	// finished AppRuns per (profile × technology × reliability
	// constants). A warm cache turns a sweep that changes only downstream
	// inputs into a replay of the cheap stages; a cancelled study leaves
	// only complete, reusable artifacts behind.
	Cache *StageCache
	// OnApp, when non-nil, receives each completed (profile × technology)
	// cell the moment it lands, long before the whole grid finishes —
	// the streaming hook behind Runner.StreamStudy and rampd's
	// /v1/study/stream. It is called from the study's goroutines and must
	// be safe for concurrent use.
	OnApp func(AppEvent)
}

// AppEvent is one completed (profile × technology) cell of a running
// study, delivered through StudyOptions.OnApp as the grid fills in.
type AppEvent struct {
	// Run is the completed cell. Run.RawFIT is uncalibrated: the
	// qualification constants are only known once every base cell has
	// finished, so streaming consumers receive raw breakdowns and apply
	// the Constants from the final StudyResult (or ReferenceConstants).
	Run AppRun
	// Source is the cell's provenance: CellFromFITCache,
	// CellFromThermalCache, or CellComputed.
	Source string
	// CellsDone and CellsTotal count completed and scheduled cells.
	CellsDone, CellsTotal int
}

// RunStudy executes the complete study: timing for every profile,
// base-technology evaluation (per-application power calibration and
// sink-temperature capture), reliability qualification, every scaled
// technology point, and the worst-case analysis per technology.
//
// techs must start with the base (180nm) technology.
func RunStudy(cfg Config, profiles []workload.Profile, techs []scaling.Technology) (*StudyResult, error) {
	return RunStudyContext(context.Background(), cfg, profiles, techs, StudyOptions{})
}

// RunStudyContext is RunStudy with cancellation, bounded parallelism, and
// progress reporting. The study runs as demand: each (profile ×
// technology) cell asks for its FIT artifact, whose computation asks for
// the cell's thermal series, whose computation asks for the profile's
// timing trace. Every base cell is started before any scaled cell, and a
// profile's scaled cells start the moment its own base cell lands, not
// when the slowest profile's does. The CPU-bound steps run on the
// process-wide compute pool. Cancelling ctx aborts outstanding work
// promptly and returns ctx.Err(); the first cell failure cancels the rest
// of the study.
func RunStudyContext(ctx context.Context, cfg Config, profiles []workload.Profile,
	techs []scaling.Technology, opts StudyOptions) (*StudyResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Canonicalise the mechanism selection up front so every spelling of
	// one set — including any explicit spelling of the default four —
	// produces byte-identical StudyResult documents, not just identical
	// stage keys.
	cfg, err := canonicalizeConfigMechanisms(cfg)
	if err != nil {
		return nil, err
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("sim: no profiles")
	}
	if len(techs) == 0 {
		return nil, fmt.Errorf("sim: no technologies")
	}
	base := scaling.Base()
	if techs[0].Name != base.Name {
		return nil, fmt.Errorf("sim: first technology must be %s (calibration anchor), got %s",
			base.Name, techs[0].Name)
	}

	// The study span roots the trace; each cell detaches onto its own
	// track below it so concurrent cells render as parallel rows.
	ctx, studySpan := obs.StartSpan(ctx, obs.SpanStudy)
	if studySpan != nil {
		studySpan.SetAttr("profiles", strconv.Itoa(len(profiles)))
		studySpan.SetAttr("techs", strconv.Itoa(len(techs)))
		if tc := obs.TraceContextFrom(ctx); tc.Valid() {
			studySpan.SetAttr("trace_id", tc.TraceID)
		}
		defer studySpan.Finish()
	}

	n, nt := len(profiles), len(techs)
	traces, err := store.New("trace", store.Options{MaxEntries: n}, store.Codec[*ActivityTrace]{})
	if err != nil {
		return nil, err
	}
	s := &studyRun{
		cfg:        cfg,
		profiles:   profiles,
		techs:      techs,
		cache:      opts.Cache,
		onApp:      opts.OnApp,
		timingKeys: make([]func() (string, error), n),
		traces:     traces,
		baseDone:   make([]chan struct{}, n),
		apps:       make([]AppRun, n*nt),
		progress: sched.NewTally(opts.OnProgress, map[string]int{
			StageTiming: n, StageBase: n, StageScaled: n * (nt - 1), StageQualify: 1, StageWorst: nt,
		}),
	}
	for i, prof := range profiles {
		s.timingKeys[i] = sync.OnceValues(func() (string, error) { return TimingKey(cfg, prof) })
		s.baseDone[i] = make(chan struct{})
	}

	// Cells are handed out in grid order, every base cell before any
	// scaled one, so the base cell a scaled cell waits for is always
	// already in progress, whatever the parallelism.
	if err := sched.Each(ctx, n*nt, opts.Parallelism, s.cell); err != nil {
		return nil, err
	}

	// Reliability qualification at the base point (§4.4) over the
	// configured mechanism set by name; for the default four the per-name
	// accumulation and division are the same operations in the same order
	// as the historical fixed-array solve, so the constants are
	// bit-identical.
	consts, err := leaf(ctx, StageQualify, func(context.Context) (core.Constants, error) {
		return qualify(cfg, s.apps[:n])
	})
	s.progress.Done(StageQualify, StageQualify, err)
	if err != nil {
		return nil, err
	}
	worst := make([]WorstCase, nt)
	for ti, tech := range techs {
		worst[ti], err = leaf(ctx, StageWorst, func(context.Context) (WorstCase, error) {
			return worstCaseFor(cfg, s.apps[ti*n:(ti+1)*n], tech)
		})
		s.progress.Done(fmt.Sprintf("%s/%d/%s", StageWorst, ti, tech.Name), StageWorst, err)
		if err != nil {
			return nil, err
		}
	}
	return &StudyResult{Config: cfg, Techs: techs, Constants: consts, Apps: s.apps, Worst: worst}, nil
}

// qualify solves the reliability-qualification constants from the base
// cells' raw FIT.
func qualify(cfg Config, baseRuns []AppRun) (core.Constants, error) {
	set, err := cfg.MechanismSet()
	if err != nil {
		return core.Constants{}, err
	}
	names := set.Names()
	rawAvg := make(map[string]float64, len(names))
	for i := range baseRuns {
		mech := baseRuns[i].RawFIT.FITByName()
		for _, nm := range names {
			rawAvg[nm] += mech[nm] / float64(len(baseRuns))
		}
	}
	c, err := core.CalibrateSet(names, rawAvg, cfg.QualFITPerMechanism)
	if err != nil {
		return core.Constants{}, fmt.Errorf("sim: qualification: %w", err)
	}
	return c, nil
}

// leaf runs fn holding one slot of the process-wide compute pool, under
// the stage label stage.
func leaf[T any](ctx context.Context, stage string, fn func(context.Context) (T, error)) (T, error) {
	var v T
	err := sched.Default.Run(ctx, stage, func(ctx context.Context) (err error) {
		v, err = fn(ctx)
		return err
	})
	return v, err
}

// studyRun is the shared state of one executing study: the grid's
// index-addressed result slots, the per-profile timing keys and traces,
// and the progress and streaming hooks.
type studyRun struct {
	cfg      Config
	profiles []workload.Profile
	techs    []scaling.Technology
	cache    *StageCache
	onApp    func(AppEvent)
	progress *sched.Tally

	// timingKeys[i] hashes profile i's timing inputs once per study;
	// every cell key of the profile derives from it.
	timingKeys []func() (string, error)
	// traces resolves each profile's activity trace at most once per
	// study, keyed by traceKey (see trace).
	traces *store.Store[*ActivityTrace]
	// baseDone[i] is closed once profile i's base cell is in apps.
	baseDone []chan struct{}
	// apps[ti*n+i] is cell (profile i × technology ti): StudyResult.Apps.
	apps []AppRun

	cellsDone atomic.Int64
}

// cell produces grid cell c — technology c/n, profile c%n — into its slot.
// A scaled cell first waits for its profile's base cell: its heat-sink
// temperature is held at the base value (§4.3) and its dynamic power uses
// the base cell's solved scale.
func (s *studyRun) cell(ctx context.Context, c int) error {
	n := len(s.profiles)
	i, ti := c%n, c/n
	prof, tech := s.profiles[i], s.techs[ti]
	stage, what := StageBase, "base eval "+prof.Name
	thermal := func(ctx context.Context, tr *ActivityTrace) (*ThermalSeries, error) {
		return evaluateBaseThermal(ctx, s.cfg, tr, prof)
	}
	if ti > 0 {
		select {
		case <-s.baseDone[i]:
		case <-ctx.Done():
			return ctx.Err()
		}
		base := s.apps[i]
		stage, what = StageScaled, prof.Name+" @ "+tech.Name
		thermal = func(ctx context.Context, tr *ActivityTrace) (*ThermalSeries, error) {
			return RunThermalContext(ctx, s.cfg, tr, tech, base.SinkTempK, base.AppPowerScale)
		}
	}
	run, src, err := s.cellCached(ctx, i, tech, stage, thermal)
	if err != nil {
		err = fmt.Errorf("sim: %s: %w", what, err)
		s.report(stage, i, ti, err)
		return err
	}
	s.apps[c] = run
	if ti == 0 {
		close(s.baseDone[i])
	}
	s.emit(run, src)
	if ti == 0 {
		s.report(StageTiming, i, ti, nil)
	}
	s.report(stage, i, ti, nil)
	return nil
}

// report records one finished task of profile i with the progress tally,
// named as stage/index/profile[@tech].
func (s *studyRun) report(stage string, i, ti int, err error) {
	id := fmt.Sprintf("%s/%d/%s", stage, i, s.profiles[i].Name)
	if stage == StageScaled {
		id += "@" + s.techs[ti].Name
	}
	s.progress.Done(id, stage, err)
}

// emit delivers one finished cell to the streaming hook.
func (s *studyRun) emit(run AppRun, src string) {
	done := int(s.cellsDone.Add(1))
	if s.onApp != nil {
		s.onApp(AppEvent{Run: run, Source: src, CellsDone: done, CellsTotal: len(s.apps)})
	}
}

// trace returns profile i's activity trace through the study's trace
// memo: the cells that need it share one resolution, which is cancelled
// only when every one of them has left, and a failed resolution is not
// kept, so the next cell to ask starts afresh. A cell whose FIT or
// thermal artifact is cached never asks, so a profile whose every cell is
// cached never runs — or looks up — its timing stage.
func (s *studyRun) trace(ctx context.Context, i int) (*ActivityTrace, error) {
	prof := s.profiles[i]
	tr, _, err := s.traces.Do(ctx, context.WithoutCancel(ctx), traceKey(i),
		func(ctx context.Context) (*ActivityTrace, error) {
			return timingStage(ctx, s.cfg, prof, s.cache, s.timingKeys[i])
		})
	if err != nil {
		return nil, fmt.Errorf("sim: timing %s: %w", prof.Name, err)
	}
	return tr, nil
}

// traceKey is profile i's key in a study's trace memo: the index as 16
// hex digits, the shortest key a store accepts.
func traceKey(i int) string { return fmt.Sprintf("%016x", i) }

// cellKeys derives a cell's thermal and FIT keys from its profile's
// timing key.
func (s *studyRun) cellKeys(i int, tech scaling.Technology) (thermalKey, fitKey string, err error) {
	tk, err := s.timingKeys[i]()
	if err != nil {
		return "", "", err
	}
	if thermalKey, err = thermalKeyFrom(s.cfg, tk, tech); err != nil {
		return "", "", err
	}
	fitKey, err = fitKeyFrom(s.cfg, thermalKey)
	return thermalKey, fitKey, err
}

// cellCached runs profile i's cell at tech inside a sim.cell span on its own
// trace track, annotated with the cell's identity and provenance (the
// returned label, which feeds AppEvent.Source).
func (s *studyRun) cellCached(ctx context.Context, i int, tech scaling.Technology, stage string,
	thermal func(context.Context, *ActivityTrace) (*ThermalSeries, error)) (AppRun, string, error) {
	ctx, cell := obs.StartTrackSpan(ctx, obs.SpanCell)
	run, src, err := s.cellResolve(ctx, i, tech, stage, thermal)
	if cell != nil {
		cell.SetAttr("app", s.profiles[i].Name)
		cell.SetAttr("tech", tech.Name)
		if err != nil {
			cell.SetAttr("error", err.Error())
		} else {
			cell.SetAttr("source", src)
		}
		cell.Finish()
	}
	return run, src, err
}

// cellResolve is cellCached's uninstrumented body, the per-cell stage
// waterfall: FIT cache → thermal cache + reliability replay → full
// computation, where thermal turns the profile's trace into the cell's
// thermal series. Its two steps each hold a compute-pool slot under the
// cell's stage label; waiting on a memo or the trace holds none. Artifacts
// are stored only when complete, so a cancelled cell leaves the cache as
// it found it, and a cell whose FIT or thermal artifact another study is
// computing joins that computation.
func (s *studyRun) cellResolve(ctx context.Context, i int, tech scaling.Technology, stage string,
	thermal func(context.Context, *ActivityTrace) (*ThermalSeries, error)) (AppRun, string, error) {
	produce := func(ctx context.Context) (*ThermalSeries, error) {
		tr, err := s.trace(ctx, i)
		if err != nil {
			return nil, err
		}
		return leaf(ctx, stage, func(ctx context.Context) (*ThermalSeries, error) { return thermal(ctx, tr) })
	}
	accumulate := func(ctx context.Context, ts *ThermalSeries) (*AppRun, error) {
		return leaf(ctx, stage, func(ctx context.Context) (*AppRun, error) {
			run, err := AccumulateFITContext(ctx, s.cfg, ts, tech)
			if err != nil {
				return nil, err
			}
			return &run, nil
		})
	}
	if s.cache == nil {
		ts, err := produce(ctx)
		if err != nil {
			return AppRun{}, "", err
		}
		run, err := accumulate(ctx, ts)
		if err != nil {
			return AppRun{}, "", err
		}
		return *run, CellComputed, nil
	}
	thermalKey, fitKey, err := s.cellKeys(i, tech)
	if err != nil {
		return AppRun{}, "", err
	}
	// src is written only by this caller's own FIT flight, which has
	// ended by the time stageDo returns without error.
	src := CellFromFITCache
	run, _, err := stageDo(ctx, s.cache.fit, "fit", fitKey, func(ctx context.Context) (*AppRun, error) {
		ts, out, err := stageDo(ctx, s.cache.thermal, "thermal", thermalKey, produce)
		if err != nil {
			return nil, err
		}
		src = CellFromThermalCache
		if out == store.OutcomeMiss {
			src = CellComputed
		}
		return accumulate(ctx, ts)
	})
	if err != nil {
		return AppRun{}, "", err
	}
	return *run, src, nil
}

// RunTimings executes the timing stage for several profiles on the
// process-wide compute pool, returning the traces in input order. opts
// mirrors RunStudyContext: Parallelism bounds the profiles in progress,
// and progress events carry the StageTiming label.
func RunTimings(ctx context.Context, cfg Config, profiles []workload.Profile,
	opts StudyOptions) ([]*ActivityTrace, error) {
	progress := sched.NewTally(opts.OnProgress, map[string]int{StageTiming: len(profiles)})
	out := make([]*ActivityTrace, len(profiles))
	err := sched.Each(ctx, len(profiles), opts.Parallelism, func(ctx context.Context, i int) error {
		tr, err := leaf(ctx, StageTiming, func(ctx context.Context) (*ActivityTrace, error) {
			return RunTimingContext(ctx, cfg, profiles[i])
		})
		if err != nil {
			err = fmt.Errorf("sim: timing %s: %w", profiles[i].Name, err)
		}
		out[i] = tr
		progress.Done(fmt.Sprintf("%s/%d", StageTiming, i), StageTiming, err)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// evaluateBaseThermal runs one profile's base-technology thermal stage,
// solving the per-application dynamic-power factor toward the Table 3
// target when configured (two refinement passes, letting leakage
// re-settle each time). Calibration needs only the power aggregates, so
// the refinement passes skip the reliability stage entirely; the returned
// series records the solved factor in AppPowerScale.
func evaluateBaseThermal(ctx context.Context, cfg Config, tr *ActivityTrace,
	prof workload.Profile) (*ThermalSeries, error) {
	base := scaling.Base()
	scale := 1.0
	ts, err := RunThermalContext(ctx, cfg, tr, base, 0, scale)
	if err != nil {
		return nil, err
	}
	if cfg.CalibrateAppPower && prof.TargetPowerW > 0 {
		for pass := 0; pass < 2; pass++ {
			want := prof.TargetPowerW - ts.AvgLeakageW
			if want <= 0 || ts.AvgDynamicW <= 0 {
				break
			}
			scale *= want / ts.AvgDynamicW
			ts, err = RunThermalContext(ctx, cfg, tr, base, 0, scale)
			if err != nil {
				return nil, err
			}
		}
	}
	return ts, nil
}

// worstCaseFor evaluates the steady worst-case operating point over a set
// of application runs at one technology: §5.2 computes the worst-case FIT
// from "the highest activity factor (p) and the highest temperature across
// all applications", used for the entire run. (An even more pessimistic
// reading — a steady thermal solve under *sustained* maximum activity —
// roughly doubles the gaps again; see EXPERIMENTS.md for the comparison
// against the paper's reported margins.)
func worstCaseFor(cfg Config, runs []AppRun, tech scaling.Technology) (WorstCase, error) {
	if len(runs) == 0 {
		return WorstCase{}, fmt.Errorf("sim: no runs for worst case at %s", tech.Name)
	}
	wc := WorstCase{Tech: tech}
	for _, run := range runs {
		for b := 0; b < microarch.NumStructures; b++ {
			if run.MaxAF[b] > wc.MaxAF[b] {
				wc.MaxAF[b] = run.MaxAF[b]
			}
			if run.MaxTempK[b] > wc.MaxTempK[b] {
				wc.MaxTempK[b] = run.MaxTempK[b]
			}
		}
		if run.MaxDieAvgTempK > wc.MaxDieAvgTempK {
			wc.MaxDieAvgTempK = run.MaxDieAvgTempK
		}
	}
	fp, err := floorplanFor(tech)
	if err != nil {
		return WorstCase{}, err
	}
	set, err := cfg.MechanismSet()
	if err != nil {
		return WorstCase{}, err
	}
	eval, err := core.NewEvaluatorForSet(cfg.RAMP, core.UnitConstants(), tech, fp.Areas(), set)
	if err != nil {
		return WorstCase{}, err
	}
	// Series-only mechanisms (tc-rainflow) have no instantaneous rate and
	// contribute 0 to the worst-case point by design.
	wc.RawFIT = eval.Instant(wc.MaxAF, wc.MaxTempK, tech.VddV, wc.MaxDieAvgTempK)
	return wc, nil
}

// SuiteAverageFIT returns the average calibrated total FIT over the runs
// of one suite (or all runs when suite is 0) at one technology index.
func (r *StudyResult) SuiteAverageFIT(ti int, suite workload.Suite) float64 {
	var sum float64
	var n int
	for _, a := range r.AppsAt(ti) {
		if suite != 0 && a.Suite != suite {
			continue
		}
		sum += r.FIT(a).Total()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MechanismNames returns the canonical names of the mechanisms the study
// evaluated, in sorted order (the paper's four when none were configured).
func (r *StudyResult) MechanismNames() []string {
	canon, err := core.CanonicalMechanismNames(r.Config.Mechanisms)
	if err != nil || canon == nil {
		return core.DefaultMechanismNames()
	}
	return canon
}

// SuiteAverageMechByName returns the suite-average calibrated
// per-mechanism FIT at one technology index, keyed by canonical mechanism
// name — the primary decomposition view, covering registry-selected
// mechanisms the fixed-array SuiteAverageMech cannot see.
func (r *StudyResult) SuiteAverageMechByName(ti int, suite workload.Suite) map[string]float64 {
	out := make(map[string]float64)
	var n int
	for _, a := range r.AppsAt(ti) {
		if suite != 0 && a.Suite != suite {
			continue
		}
		for name, fit := range r.FIT(a).FITByName() {
			out[name] += fit
		}
		n++
	}
	if n == 0 {
		return out
	}
	for name := range out {
		out[name] /= float64(n)
	}
	return out
}

// SuiteAverageMech returns the suite-average calibrated per-mechanism FIT
// at one technology index.
//
// Deprecated: SuiteAverageMech covers only the paper's four fixed-slot
// mechanisms; registry-selected mechanisms are invisible to it. Use
// SuiteAverageMechByName for the complete decomposition.
func (r *StudyResult) SuiteAverageMech(ti int, suite workload.Suite) [core.NumMechanisms]float64 {
	var out [core.NumMechanisms]float64
	var n int
	for _, a := range r.AppsAt(ti) {
		if suite != 0 && a.Suite != suite {
			continue
		}
		mech := r.FIT(a).ByMechanism()
		for m := range out {
			out[m] += mech[m]
		}
		n++
	}
	if n == 0 {
		return out
	}
	for m := range out {
		out[m] /= float64(n)
	}
	return out
}

// FITRange returns the lowest and highest calibrated application total FIT
// at one technology index.
func (r *StudyResult) FITRange(ti int) (lo, hi float64) {
	apps := r.AppsAt(ti)
	if len(apps) == 0 {
		return 0, 0
	}
	totals := make([]float64, len(apps))
	for i, a := range apps {
		totals[i] = r.FIT(a).Total()
	}
	sort.Float64s(totals)
	return totals[0], totals[len(totals)-1]
}
