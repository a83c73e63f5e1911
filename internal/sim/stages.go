package sim

import (
	"context"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/store"
	"github.com/ramp-sim/ramp/internal/workload"
)

// StageCacheOptions bounds a StageCache's three store.Store memos.
type StageCacheOptions struct {
	// MaxEntries bounds each stage's in-memory LRU (default 256 per
	// stage). Thermal artifacts are the largest — roughly 130 bytes per
	// simulated microsecond per cell.
	MaxEntries int
	// Dir, when non-empty, spills encoded artifacts under it
	// (Dir/timing, Dir/thermal, Dir/fit) so later processes start warm.
	Dir string
	// Observer, when non-nil, receives one store.Event per cache
	// operation across all three stage stores (a lookup that joins
	// another study's running computation has outcome "joined");
	// Event.Store carries the stage name ("timing", "thermal", "fit"). It
	// is called from simulation goroutines and must be concurrency-safe.
	Observer func(store.Event)
}

// StageCache is the content-addressed artifact cache of the staged study
// pipeline: one store.Store memo per stage, keyed by TimingKey /
// ThermalKey / FITKey, so concurrent studies that miss the same artifact
// compute it once. A nil *StageCache disables caching where accepted.
//
// Consistency is structural: artifacts are only ever inserted complete
// (a cancelled stage returns an error and stores nothing), and a key
// change in any upstream input changes the downstream keys, so stale
// reuse is impossible without hash collision.
type StageCache struct {
	timing  *store.Store[*ActivityTrace]
	thermal *store.Store[*ThermalSeries]
	fit     *store.Store[*AppRun]
}

// NewStageCache builds the three per-stage stores.
func NewStageCache(opts StageCacheOptions) (*StageCache, error) {
	so := store.Options{MaxEntries: opts.MaxEntries, Dir: opts.Dir, Observer: opts.Observer}
	timing, err := store.New("timing", so, store.JSONCodec[*ActivityTrace]())
	if err != nil {
		return nil, err
	}
	thermal, err := store.New("thermal", so, store.JSONCodec[*ThermalSeries]())
	if err != nil {
		return nil, err
	}
	fit, err := store.New("fit", so, store.JSONCodec[*AppRun]())
	if err != nil {
		return nil, err
	}
	return &StageCache{timing: timing, thermal: thermal, fit: fit}, nil
}

// StageCacheStats snapshots all three stores.
type StageCacheStats struct {
	Timing, Thermal, FIT store.Stats
}

// Stats returns a consistent-enough snapshot for observability (each
// store is snapshotted atomically; the three reads are not mutually
// atomic).
func (c *StageCache) Stats() StageCacheStats {
	return StageCacheStats{
		Timing:  c.timing.Stats(),
		Thermal: c.thermal.Stats(),
		FIT:     c.fit.Stats(),
	}
}

// Cell provenance labels reported through StudyOptions.OnApp: how a
// completed (profile × technology) cell was produced.
const (
	// CellFromFITCache means the finished AppRun was served whole, stored
	// or from another study's computation it joined.
	CellFromFITCache = "fit-cache"
	// CellFromThermalCache means the thermal series was reused (or
	// joined) and only the reliability stage ran.
	CellFromThermalCache = "thermal-cache"
	// CellComputed means the thermal (and possibly timing) stage ran.
	CellComputed = "computed"
)

// RunTimingCachedContext is RunTimingContext through a stage cache: a hit
// on the profile's timing key skips the simulation entirely, and a miss
// joins a running simulation of the same key. The simulation holds a slot
// of the process-wide compute pool. cache may be nil.
func RunTimingCachedContext(ctx context.Context, cfg Config, prof workload.Profile,
	cache *StageCache) (*ActivityTrace, error) {
	return timingStage(ctx, cfg, prof, cache, func() (string, error) { return TimingKey(cfg, prof) })
}

// timingStage is RunTimingCachedContext with the timing key supplied by
// the caller, which a study derives once per profile.
func timingStage(ctx context.Context, cfg Config, prof workload.Profile, cache *StageCache,
	key func() (string, error)) (*ActivityTrace, error) {
	ctx, sp := obs.StartSpan(ctx, obs.SpanTiming)
	sp.SetAttr("app", prof.Name)
	defer sp.Finish()
	run := func(ctx context.Context) (*ActivityTrace, error) {
		return leaf(ctx, StageTiming, func(ctx context.Context) (*ActivityTrace, error) {
			return RunTimingContext(ctx, cfg, prof)
		})
	}
	if cache == nil {
		return run(ctx)
	}
	k, err := key()
	if err != nil {
		return nil, err
	}
	tr, out, err := stageDo(ctx, cache.timing, StageTiming, k, run)
	sp.SetAttr("cache", spanResult(out))
	return tr, err
}

// stageDo serves key from one stage store through its memo, leading fn on
// a context detached from ctx's cancellation (it keeps the tracer and
// request ID), so one study giving up frees only its own wait. It emits a
// store.get span and, when this caller's flight stored, a store.put span.
func stageDo[T any](ctx context.Context, st *store.Store[T], stage, key string,
	fn func(context.Context) (T, error)) (T, string, error) {
	_, get := obs.StartSpan(ctx, obs.SpanCacheGet)
	v, f, out := st.Join(context.WithoutCancel(ctx), key, true, fn)
	if get != nil {
		get.SetAttr("stage", stage)
		get.SetAttr("result", spanResult(out))
		get.Finish()
	}
	if f == nil {
		return v, out, nil
	}
	v, err := st.Wait(ctx, f)
	if err == nil && out == store.OutcomeMiss {
		if _, put := obs.StartSpan(ctx, obs.SpanCachePut); put != nil {
			put.SetAttr("stage", stage)
			if f.Stored().Spilled {
				put.SetAttr("spilled", "true")
			}
			put.Finish()
		}
	}
	return v, out, err
}

// spanResult is the span label of a store outcome: both tiers' hits are
// "hit".
func spanResult(out string) string {
	if out == store.OutcomeHitMem || out == store.OutcomeHitDisk {
		return "hit"
	}
	return out
}
