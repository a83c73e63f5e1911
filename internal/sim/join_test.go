package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/store"
)

// stageWork is a span sink counting the stage computations studies ran:
// timing simulations (sim.timing spans that missed the cache), thermal
// stage flights (thermal lookups that missed and so led one), and thermal
// transients (sim.thermal spans; a base cell runs several while it
// calibrates its power).
type stageWork struct {
	mu                                  sync.Mutex
	timingRuns, thermalRuns, transients int
}

func (w *stageWork) SpanEnded(sp *obs.Span) {
	a := attrMap(sp)
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case sp.Name == obs.SpanTiming && a["cache"] == "miss":
		w.timingRuns++
	case sp.Name == obs.SpanCacheGet && a["stage"] == "thermal" && a["result"] == "miss":
		w.thermalRuns++
	case sp.Name == obs.SpanThermal:
		w.transients++
	}
}

// within receives from c, failing the test after a minute: a guard that
// turns a hang into a failure, not a synchronisation.
func within[T any](t *testing.T, c <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-c:
		return v
	case <-time.After(time.Minute):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// awaitJoins spins until st has counted n lookups that joined a running
// flight, failing the test after a minute.
func awaitJoins[T any](t *testing.T, st *store.Store[T], n int64) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for st.Stats().Joined < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d lookups joined a flight, want %d", st.Stats().Joined, n)
		}
		runtime.Gosched()
	}
}

// TestConcurrentStudiesShareStageWork runs four {ammp, gzip} studies over
// all five technologies at once on one cold stage cache, differing only in
// mechanism set. The timing and thermal artifacts do not depend on the
// mechanisms, so the four studies together must run each timing key and
// each thermal key exactly once — a study missing a key another study is
// computing joins that computation, and bills none of it to its own run
// record — and each must still equal its own cacheless run.
func TestConcurrentStudiesShareStageWork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Instructions = 100_000
	profiles := testProfiles(t)[:2]
	techs := scaling.Generations()
	ctx := context.Background()

	// One study alone on a cold cache fixes the transient count of one
	// computation per thermal key.
	lone := &stageWork{}
	if _, err := RunStudyContext(obs.WithTracer(ctx, obs.NewTracer(lone)), cfg, profiles, techs,
		StudyOptions{Cache: testStageCache(t)}); err != nil {
		t.Fatal(err)
	}

	sets := [][]string{nil, {"em", "sm", "tddb", "tc", "nbti"},
		{"em", "sm", "tddb", "tc", "hci"}, {"em", "sm", "tddb", "tc", "nbti", "hci"}}
	cache := testStageCache(t)
	work := &stageWork{}
	results := make([]*StudyResult, len(sets))
	stats := make([]*obs.RunStats, len(sets))
	var wg sync.WaitGroup
	for i, set := range sets {
		c := cfg
		c.Mechanisms = set
		stats[i] = obs.NewRunStats()
		tctx := obs.WithTracer(ctx, obs.NewTracer(obs.MultiSink(work, stats[i])))
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunStudyContext(tctx, c, profiles, techs, StudyOptions{Cache: cache})
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if work.timingRuns != len(profiles) {
		t.Errorf("timing simulations = %d, want one per timing key (%d)", work.timingRuns, len(profiles))
	}
	if want := len(profiles) * len(techs); work.thermalRuns != want {
		t.Errorf("thermal stage runs = %d, want one per thermal key (%d)", work.thermalRuns, want)
	}
	if work.transients != lone.transients {
		t.Errorf("thermal transients = %d, want one study's %d", work.transients, lone.transients)
	}
	var rec obs.RunRecord
	for _, st := range stats {
		st.Fill(&rec)
	}
	if want := len(profiles) * len(techs); rec.CellsComputed != want {
		t.Errorf("cells billed as computed = %d across the studies, want %d", rec.CellsComputed, want)
	}
	for i, set := range sets {
		c := cfg
		c.Mechanisms = set
		alone, err := RunStudyContext(ctx, c, profiles, techs, StudyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(alone, results[i]) {
			t.Errorf("study %v run concurrently differs from its cacheless run", set)
		}
	}
}

// TestStageFlightSurvivesLeaderCancel: study A leads a stage flight, study
// B joins it, then A is cancelled. A's wait ends at once, but the flight
// runs on for B, which receives the artifact from the one run of fn. When
// every waiter leaves instead, the flight is cancelled and stores nothing.
func TestStageFlightSurvivesLeaderCancel(t *testing.T) {
	cache, err := NewStageCache(StageCacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		ts  *ThermalSeries
		out string
		err error
	}
	do := func(ctx context.Context, key string, fn func(context.Context) (*ThermalSeries, error)) <-chan result {
		c := make(chan result, 1)
		go func() {
			ts, out, err := stageDo(ctx, cache.thermal, "thermal", key, fn)
			c <- result{ts, out, err}
		}()
		return c
	}

	// A leads, B joins, A gives up: B still gets the artifact.
	key := strings.Repeat("a1", 32)
	var runs atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	fn := func(ctx context.Context) (*ThermalSeries, error) {
		if runs.Add(1) == 1 {
			close(started)
		}
		select {
		case <-release:
			return &ThermalSeries{App: "shared"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	a := do(ctxA, key, fn)
	within(t, started, "the leader's flight")
	b := do(context.Background(), key, fn)
	awaitJoins(t, cache.thermal, 1)
	cancelA()
	if r := within(t, a, "the leader"); !errors.Is(r.err, context.Canceled) || r.out != store.OutcomeMiss {
		t.Fatalf("cancelled leader: out=%s err=%v, want a miss ending in context.Canceled", r.out, r.err)
	}
	close(release)
	r := within(t, b, "the joiner")
	if r.err != nil || r.out != store.OutcomeJoined || r.ts == nil || r.ts.App != "shared" {
		t.Fatalf("joiner: ts=%+v out=%s err=%v, want the shared artifact", r.ts, r.out, r.err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	if _, ok := cache.thermal.Get(key); !ok {
		t.Error("the flight's artifact was not stored")
	}

	// Two studies share a flight and both give up: the flight is cancelled
	// only when the second leaves, stores nothing, and frees the key for a
	// fresh run.
	key = strings.Repeat("b2", 32)
	cancelled := make(chan struct{})
	block := func(ctx context.Context) (*ThermalSeries, error) {
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}
	ctxA, cancelA = context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	a = do(ctxA, key, block)
	b = do(ctxB, key, block)
	awaitJoins(t, cache.thermal, 2)
	cancelA()
	if r := within(t, a, "the first study"); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", r.err)
	}
	select {
	case <-cancelled:
		t.Fatal("flight cancelled while a waiter remained")
	default:
	}
	cancelB()
	if r := within(t, b, "the second study"); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("joiner err = %v, want context.Canceled", r.err)
	}
	within(t, cancelled, "the flight's cancellation")
	if _, ok := cache.thermal.Get(key); ok {
		t.Error("an abandoned flight stored its artifact")
	}
	if st := cache.thermal.Stats(); st.Puts != 1 {
		t.Errorf("thermal puts = %d, want only the first flight's", st.Puts)
	}
	fresh := func(context.Context) (*ThermalSeries, error) { return &ThermalSeries{App: "fresh"}, nil }
	if r := within(t, do(context.Background(), key, fresh), "the fresh run"); r.err != nil || r.out != store.OutcomeMiss || r.ts.App != "fresh" {
		t.Errorf("run after abandonment: ts=%+v out=%s err=%v, want a fresh miss", r.ts, r.out, r.err)
	}
}
