package ramp

import (
	"context"
	"time"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/jobs"
	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/sim"
)

// Staged-execution facade types.
type (
	// CacheOptions bounds a Runner's stage cache (in-memory LRU size per
	// stage plus an optional disk-spill directory).
	CacheOptions = sim.StageCacheOptions
	// StageCacheStats snapshots the three per-stage stores of a stage
	// cache (timing, thermal, reliability).
	StageCacheStats = sim.StageCacheStats
	// AppEvent is one completed (application × technology) cell of a
	// running study, delivered while the grid is still filling in.
	AppEvent = sim.AppEvent
	// RunRecord is one completed run as the cost ledger records it:
	// identity, configuration, and wall/CPU/stage/cache cost breakdowns.
	RunRecord = obs.RunRecord
	// RunFilter selects runs from the ledger (tenant, key, outcome, kind,
	// limit); the zero filter matches everything.
	RunFilter = obs.RunFilter
	// StageCost is one pipeline stage's aggregated cost within a run.
	StageCost = obs.StageCost
	// CacheCost is one stage cache's aggregated traffic within a run.
	CacheCost = obs.CacheCost
	// LedgerStats summarises a cost ledger's ring (appended, retained,
	// capacity, dropped tail events).
	LedgerStats = obs.LedgerStats
)

// Run-record outcome labels carried by RunRecord.Outcome.
const (
	// RunOK: the run completed successfully.
	RunOK = obs.RunOK
	// RunError: the run failed with a non-cancellation error.
	RunError = obs.RunError
	// RunCancelled: the run was cancelled before completing.
	RunCancelled = obs.RunCancelled
	// RunDeadline: the run exceeded its deadline.
	RunDeadline = obs.RunDeadline
)

// Cell provenance labels carried by AppEvent.Source and StudyEvent.Source.
const (
	// CellFromFITCache: the finished cell was served whole from the
	// reliability-stage cache.
	CellFromFITCache = sim.CellFromFITCache
	// CellFromThermalCache: the thermal series was reused; only the cheap
	// reliability accumulation ran.
	CellFromThermalCache = sim.CellFromThermalCache
	// CellComputed: the thermal transient (and possibly the timing
	// simulation) ran for this cell.
	CellComputed = sim.CellComputed
)

// Runner executes studies with a fixed execution policy — parallelism,
// progress reporting, metrics, and an optional stage cache — configured
// once through functional options. The zero policy (ramp.New() with no
// options) matches RunStudyContext with empty StudyOptions.
//
// A Runner is immutable after New and safe for concurrent use; concurrent
// studies share its stage cache, so overlapping requests deduplicate work
// at stage granularity.
type Runner struct {
	parallelism int
	progress    func(StudyProgress)
	cache       *sim.StageCache
	tracer      *Tracer
	batchOpts   *BatchOptions
	jobs        *jobs.Queue
	fidelity    *Fidelity
	mechanisms  []string
	ledger      *obs.Ledger
}

// Option configures a Runner. Options are applied in order; an option
// error aborts New.
type Option func(*Runner) error

// New builds a Runner from functional options.
//
//	runner, err := ramp.New(
//		ramp.WithParallelism(4),
//		ramp.WithCache(ramp.CacheOptions{Dir: ".ramp-cache"}),
//	)
func New(opts ...Option) (*Runner, error) {
	r := &Runner{}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	// The batch queue is built last so its executor sees the final policy
	// regardless of option order.
	if r.batchOpts != nil {
		if err := r.initBatchQueue(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// WithParallelism bounds how many cells of one study (or replica batches
// of one Monte Carlo study) are in progress at once; values < 1 (and the
// default) leave the bound to the process-wide compute pool, whose
// GOMAXPROCS slots every study shares. Parallelism never affects
// numerics — results are bit-identical at every level.
func WithParallelism(n int) Option {
	return func(r *Runner) error {
		r.parallelism = n
		return nil
	}
}

// WithProgress installs a per-task completion callback. fn is called from
// worker goroutines and must be safe for concurrent use.
func WithProgress(fn func(StudyProgress)) Option {
	return func(r *Runner) error {
		r.progress = fn
		return nil
	}
}

// WithCache attaches a content-addressed stage cache: timing artifacts per
// application, thermal series per (application × technology), finished
// cells per (application × technology × reliability constants). Warm
// entries short-circuit the corresponding stage, so a sweep that changes
// only reliability constants replays in a fraction of the cold time. With
// a non-empty Dir the cache additionally spills to disk and later
// processes start warm.
func WithCache(opts CacheOptions) Option {
	return func(r *Runner) error {
		cache, err := sim.NewStageCache(opts)
		if err != nil {
			return err
		}
		r.cache = cache
		return nil
	}
}

// WithTracer instruments every study the Runner executes: pipeline-stage,
// per-cell and compute-pool slot spans flow into the tracer's sink (e.g. a TraceCollector
// for Chrome-trace export). A nil tracer leaves execution untraced with
// zero overhead on the stage hot paths.
func WithTracer(t *Tracer) Option {
	return func(r *Runner) error {
		r.tracer = t
		return nil
	}
}

// WithFidelity sets the Runner's default fidelity mode, applied to every
// study whose Config leaves Fidelity nil. An explicit Config.Fidelity
// always wins. The fidelity participates in every content-addressed stage
// and result key, so a Runner serving mixed fidelities never cross-serves
// cached results. Passing nil (or a validation failure) rejects the
// option.
func WithFidelity(f *Fidelity) Option {
	return func(r *Runner) error {
		if err := f.Validate(); err != nil {
			return err
		}
		r.fidelity = f
		return nil
	}
}

// WithMechanisms sets the Runner's default failure-mechanism selection,
// applied to every study whose Config leaves Mechanisms empty. An explicit
// Config.Mechanisms always wins. Names resolve against the mechanism
// registry (RegisteredMechanisms lists them) and are canonicalised here —
// lower-cased, de-aliased, sorted, de-duplicated — so an unknown name
// rejects the option immediately and every spelling of one set shares
// cache entries. Passing the default four (in any order) is equivalent to
// not setting the option at all: keys and results stay byte-identical to
// an unconfigured Runner.
func WithMechanisms(names ...string) Option {
	return func(r *Runner) error {
		canon, err := core.CanonicalMechanismNames(names)
		if err != nil {
			return err
		}
		r.mechanisms = canon
		return nil
	}
}

// WithLedger attaches a bounded, concurrency-safe cost ledger: every
// Study, MCStudy, and StreamStudy appends one RunRecord — outcome, wall
// time, per-stage wall/CPU cost, stage-cache traffic — queryable through
// Runs. capacity bounds the ring (oldest records evict first); values
// < 1 select the default capacity.
func WithLedger(capacity int) Option {
	return func(r *Runner) error {
		if capacity < 1 {
			capacity = 0
		}
		r.ledger = obs.NewLedger(capacity)
		return nil
	}
}

// Runs returns recorded runs matching f, newest first. It returns nil
// when the Runner has no ledger attached (see WithLedger).
func (r *Runner) Runs(f RunFilter) []RunRecord {
	if r.ledger == nil {
		return nil
	}
	return r.ledger.Runs(f)
}

// LedgerStats snapshots the Runner's ledger; ok is false when no ledger
// is attached.
func (r *Runner) LedgerStats() (stats LedgerStats, ok bool) {
	if r.ledger == nil {
		return LedgerStats{}, false
	}
	return r.ledger.Stats(), true
}

// applyFidelity fills the Runner's default fidelity and mechanism
// selection into a config that does not set its own.
func (r *Runner) applyFidelity(cfg Config) Config {
	if cfg.Fidelity == nil && r.fidelity != nil {
		f := *r.fidelity
		cfg.Fidelity = &f
	}
	if len(cfg.Mechanisms) == 0 && len(r.mechanisms) > 0 {
		cfg.Mechanisms = append([]string(nil), r.mechanisms...)
	}
	return cfg
}

// traceCtx installs the Runner's tracer, if any, on the study context.
func (r *Runner) traceCtx(ctx context.Context) context.Context {
	if r.tracer != nil {
		return obs.WithTracer(ctx, r.tracer)
	}
	return ctx
}

// studyCtx prepares one run's context: the Runner's tracer, if any, plus
// — when a ledger is attached — a per-run stats sink that aggregates the
// run's spans into its eventual RunRecord.
func (r *Runner) studyCtx(ctx context.Context) (context.Context, *obs.RunStats) {
	if r.ledger == nil {
		return r.traceCtx(ctx), nil
	}
	stats := obs.NewRunStats()
	var sink obs.SpanSink = stats
	if r.tracer != nil {
		sink = obs.MultiSink(r.tracer.Sink(), stats)
	}
	return obs.WithTracer(ctx, obs.NewTracer(sink)), stats
}

// record appends one run to the Runner's ledger. No-op without a ledger.
func (r *Runner) record(kind, key string, cfg Config, nProfiles int,
	start time.Time, stats *obs.RunStats, err error) {
	if r.ledger == nil {
		return
	}
	fidelity := string(sim.FidelityExact)
	if cfg.Fidelity != nil && cfg.Fidelity.Mode != "" {
		fidelity = string(cfg.Fidelity.Mode)
	}
	rec := RunRecord{
		Kind:         kind,
		Key:          key,
		Fidelity:     fidelity,
		Mechanisms:   cfg.Mechanisms,
		Outcome:      obs.OutcomeFor(err),
		Start:        start.UTC(),
		WallMS:       float64(time.Since(start)) / float64(time.Millisecond),
		Instructions: cfg.Instructions * int64(nProfiles),
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if stats != nil {
		stats.Fill(&rec)
	}
	r.ledger.Append(rec)
}

// options assembles the StudyOptions for one study run.
func (r *Runner) options(onApp func(AppEvent)) StudyOptions {
	return StudyOptions{
		Parallelism: r.parallelism,
		OnProgress:  r.progress,
		Cache:       r.cache,
		OnApp:       onApp,
	}
}

// Study executes the complete scaling study — timing per application,
// base-technology calibration, reliability qualification, every scaled
// technology point, and the worst-case analysis — under the Runner's
// execution policy. techs must start with the base (180nm) technology.
func (r *Runner) Study(ctx context.Context, cfg Config, profiles []Profile,
	techs []Technology) (*StudyResult, error) {
	cfg = r.applyFidelity(cfg)
	ctx, stats := r.studyCtx(ctx)
	start := time.Now()
	res, err := sim.RunStudyContext(ctx, cfg, profiles, techs, r.options(nil))
	key, _ := sim.StudyKey(cfg, profiles, techs)
	r.record("study", key, cfg, len(profiles), start, stats, err)
	return res, err
}

// MCStudy executes the scaling study (through the Runner's stage cache,
// so a warm cache reduces it to replaying cheap artifacts) and then fans
// Monte Carlo lifetime replicas for every (application × technology)
// cell over the process-wide compute pool, summarising each cell's
// lifetime distribution with percentile and mean confidence intervals.
//
// Replica streams are seeded per (root seed, cell, replica), so the
// result is byte-identical at every parallelism level. onEvent, when
// non-nil, receives incremental per-cell estimates while sampling runs;
// it is called from worker goroutines and must be safe for concurrent
// use. mcfg is normalized before use — zero fields take the documented
// defaults.
func (r *Runner) MCStudy(ctx context.Context, cfg Config, profiles []Profile,
	techs []Technology, mcfg MCConfig, onEvent func(MCEvent)) (*MCResult, error) {
	cfg = r.applyFidelity(cfg)
	ctx, stats := r.studyCtx(ctx)
	start := time.Now()
	res, err := sim.RunMCStudyContext(ctx, cfg, mcfg, profiles, techs, r.options(nil), onEvent)
	key, _ := sim.MCStudyKey(cfg, mcfg.Normalized(), profiles, techs)
	r.record("mc", key, cfg, len(profiles), start, stats, err)
	return res, err
}

// Timing executes only the timing stage for one profile, through the
// Runner's stage cache when one is attached. The returned trace is
// immutable and may be shared across concurrent evaluations.
func (r *Runner) Timing(ctx context.Context, cfg Config, prof Profile) (*ActivityTrace, error) {
	return sim.RunTimingCachedContext(r.traceCtx(ctx), r.applyFidelity(cfg), prof, r.cache)
}

// CacheStats snapshots the Runner's stage cache. ok is false when the
// Runner has no cache attached.
func (r *Runner) CacheStats() (stats StageCacheStats, ok bool) {
	if r.cache == nil {
		return StageCacheStats{}, false
	}
	return r.cache.Stats(), true
}

// StudyEvent is one element of the stream produced by StreamStudy: either
// a completed (application × technology) cell (App != nil) or the single
// terminal event (Result or Err set) that precedes channel close.
type StudyEvent struct {
	// App is the completed cell, nil on the terminal event. Its RawFIT is
	// uncalibrated — qualification constants are only known once every
	// base cell has finished; apply Result.Constants (or
	// ReferenceConstants) to convert to absolute FIT.
	App *AppRun
	// Source is the cell's provenance (CellFromFITCache,
	// CellFromThermalCache, CellComputed); empty on the terminal event.
	Source string
	// CellsDone and CellsTotal count completed and scheduled cells at the
	// moment the event was emitted.
	CellsDone, CellsTotal int
	// Result is the complete study, set only on a successful terminal
	// event.
	Result *StudyResult
	// Err is the study failure, set only on a failed terminal event;
	// after cancellation it wraps ctx.Err().
	Err error
}

// StreamStudy runs Study incrementally: the returned channel yields one
// StudyEvent per completed (application × technology) cell as the grid
// fills in, then exactly one terminal event carrying the assembled
// StudyResult (or the study error), and closes.
//
// The stream is unbuffered: an unread event blocks the workers that
// produced it, so consume promptly or cancel ctx. Cancelling ctx mid-grid
// aborts the study — already-completed stages stay in the Runner's cache,
// so a repeated request resumes where the cancelled one left off.
func (r *Runner) StreamStudy(ctx context.Context, cfg Config, profiles []Profile,
	techs []Technology) (<-chan StudyEvent, error) {
	cfg = r.applyFidelity(cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx, stats := r.studyCtx(ctx)
	events := make(chan StudyEvent)
	onApp := func(ev AppEvent) {
		run := ev.Run
		select {
		case events <- StudyEvent{
			App:        &run,
			Source:     ev.Source,
			CellsDone:  ev.CellsDone,
			CellsTotal: ev.CellsTotal,
		}:
		case <-ctx.Done():
		}
	}
	go func() {
		defer close(events)
		start := time.Now()
		res, err := sim.RunStudyContext(ctx, cfg, profiles, techs, r.options(onApp))
		key, _ := sim.StudyKey(cfg, profiles, techs)
		r.record("study.stream", key, cfg, len(profiles), start, stats, err)
		term := StudyEvent{Result: res, Err: err}
		select {
		case events <- term:
		case <-ctx.Done():
			// The consumer is gone; still try to hand over the terminal
			// event without blocking so a draining reader sees it.
			select {
			case events <- term:
			default:
			}
		}
	}()
	return events, nil
}
