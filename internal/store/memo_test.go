package store

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/sched"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }

// newMemo returns a memory-only store of max entries, as rampd's result
// memo is configured.
func newMemo(t *testing.T, opts Options) *Store[any] {
	t.Helper()
	s, err := New("memo", opts, Codec[any]{})
	if err != nil {
		t.Fatal(err)
	}
	return s
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

// awaitLookups spins until s has counted n lookups, so a test can wait
// until a number of callers have joined a flight. It fails the test after
// a minute, so a hang reads as a failure.
func awaitLookups[T any](t *testing.T, s *Store[T], n int64) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		st := s.Stats()
		got := st.MemHits + st.DiskHits + st.Misses + st.Joined
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d lookups counted, want %d", got, n)
		}
		runtime.Gosched()
	}
}

// TestMemoLRUEviction proves the entry bound holds and eviction is
// least-recently-used, counting Get promotions as use.
func TestMemoLRUEviction(t *testing.T) {
	c := newMemo(t, Options{MaxEntries: 3})
	for i := 0; i < 3; i++ {
		c.Put(key(i), i)
	}
	// Touch key 0 so key 1 becomes the eviction candidate.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	c.Put(key(3), 3)
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.Len())
	}
	if _, ok := c.Get(key(1)); ok {
		t.Error("key 1 survived eviction despite being least recently used")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Errorf("key %d evicted unexpectedly", i)
		}
	}
	if st := c.Stats(); st.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", st.Evicted)
	}
}

// TestMemoTTLExpiry proves entries expire on the TTL boundary and are
// reported as expired misses.
func TestMemoTTLExpiry(t *testing.T) {
	clk := newFakeClock()
	c := newMemo(t, Options{MaxEntries: 8, TTL: time.Minute, Now: clk.now})
	c.Put(key(1), "v")
	clk.advance(59 * time.Second)
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clk.advance(2 * time.Second)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("entry survived past its TTL")
	}
	st := c.Stats()
	if st.Expired != 1 {
		t.Errorf("expired = %d, want 1", st.Expired)
	}
	if st.Entries != 0 {
		t.Errorf("entries = %d, want 0", st.Entries)
	}
	// Re-putting restarts the TTL.
	c.Put(key(1), "v2")
	clk.advance(30 * time.Second)
	if v, ok := c.Get(key(1)); !ok || v != "v2" {
		t.Error("refreshed entry not served")
	}
}

// TestMemoHitRatioCounters checks hit/miss accounting.
func TestMemoHitRatioCounters(t *testing.T) {
	c := newMemo(t, Options{MaxEntries: 4})
	c.Put(key(1), 1)
	c.Get(key(1))
	c.Get(key(1))
	c.Get(key(2))
	st := c.Stats()
	if st.MemHits != 2 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", st.MemHits, st.Misses)
	}
}

// TestMemoDoDedup runs 100 concurrent identical Do calls and proves
// exactly one execution happens, with 99 joined followers and one lookup
// counted per call. The flight is released only once every call has
// looked the key up, so each follower joins it. Run under -race this also
// exercises the result-sharing paths.
func TestMemoDoDedup(t *testing.T) {
	const n = 100
	c := newMemo(t, Options{MaxEntries: 8})
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	outs := map[string]int{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), context.Background(), key(1),
				func(context.Context) (any, error) {
					calls.Add(1)
					<-release
					return "result", nil
				})
			if err != nil {
				t.Error(err)
			}
			if v != "result" {
				t.Errorf("got %v, want result", v)
			}
			mu.Lock()
			outs[out]++
			mu.Unlock()
		}()
	}
	awaitLookups(t, c, n)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if outs[OutcomeMiss] != 1 || outs[OutcomeJoined] != n-1 {
		t.Errorf("outcomes = %v, want 1 miss and %d joined", outs, n-1)
	}
	if st := c.Stats(); st.Misses != 1 || st.Joined != n-1 || st.MemHits != 0 {
		t.Errorf("stats = %+v, want 1 miss and %d joined", st, n-1)
	}
}

// TestMemoDoSequentialCalls proves a finished flight leaves a resident
// value, not a leaked flight: the calls after the first are hits and fn
// runs once.
func TestMemoDoSequentialCalls(t *testing.T) {
	c := newMemo(t, Options{MaxEntries: 8})
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		v, out, err := c.Do(context.Background(), context.Background(), key(1),
			func(context.Context) (any, error) {
				calls.Add(1)
				return "v", nil
			})
		want := OutcomeHitMem
		if i == 0 {
			want = OutcomeMiss
		}
		if err != nil || v != "v" || out != want {
			t.Fatalf("call %d: v=%v out=%s err=%v, want v %s", i, v, out, err, want)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	if st := c.Stats(); st.MemHits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss, 1 entry", st)
	}
}

// TestMemoDoAbandonCancelsFlight proves that when every waiter gives up,
// the flight context is cancelled and the key is released for a fresh
// computation.
func TestMemoDoAbandonCancelsFlight(t *testing.T) {
	c := newMemo(t, Options{MaxEntries: 8})
	flightCancelled := make(chan struct{})
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, context.Background(), key(1),
			func(fctx context.Context) (any, error) {
				close(started)
				<-fctx.Done()
				close(flightCancelled)
				return nil, fctx.Err()
			})
		errc <- err
	}()
	within(t, started, "the flight")
	cancel() // the only waiter gives up
	within(t, flightCancelled, "the flight's cancellation")
	if err := within(t, errc, "the waiter"); !errors.Is(err, context.Canceled) {
		t.Errorf("waiter error = %v, want context.Canceled", err)
	}
	// The key must be free for a fresh run that succeeds.
	v, out, err := c.Do(context.Background(), context.Background(), key(1),
		func(context.Context) (any, error) { return "fresh", nil })
	if err != nil || out != OutcomeMiss || v != "fresh" {
		t.Errorf("fresh run after abandonment: v=%v out=%s err=%v", v, out, err)
	}
}

// TestMemoDoWaiterSurvivesOtherWaiterTimeout proves one caller's deadline
// does not cancel a flight another caller still wants.
func TestMemoDoWaiterSurvivesOtherWaiterTimeout(t *testing.T) {
	c := newMemo(t, Options{MaxEntries: 8})
	release := make(chan struct{})
	started := make(chan struct{})
	patientErr := make(chan error, 1)
	patientVal := make(chan any, 1)
	go func() {
		v, _, err := c.Do(context.Background(), context.Background(), key(1),
			func(fctx context.Context) (any, error) {
				close(started)
				select {
				case <-release:
					return "done", nil
				case <-fctx.Done():
					return nil, fctx.Err()
				}
			})
		patientErr <- err
		patientVal <- v
	}()
	within(t, started, "the flight")
	// An impatient follower joins, then its deadline passes.
	impatient, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, out, err := c.Do(impatient, context.Background(), key(1),
		func(context.Context) (any, error) { t.Error("follower must not run fn"); return nil, nil })
	if out != OutcomeJoined || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient follower: out=%s err=%v", out, err)
	}
	close(release)
	if err := within(t, patientErr, "the patient waiter"); err != nil {
		t.Errorf("patient waiter failed: %v", err)
	}
	if v := <-patientVal; v != "done" {
		t.Errorf("patient waiter got %v, want done", v)
	}
}

// TestMemoDoJustAfterFlightIsHit covers the race between a finished
// flight and the next request for its key: a Do arriving after the flight
// ends finds the stored value — a hit — and fn ran once.
func TestMemoDoJustAfterFlightIsHit(t *testing.T) {
	c := newMemo(t, Options{MaxEntries: 8})
	var calls atomic.Int64
	fn := func(context.Context) (any, error) {
		calls.Add(1)
		return "v", nil
	}
	// Join starts the flight without waiting on it, as a request that has
	// not yet reached its wait would.
	_, f, out := c.Join(context.Background(), key(1), true, fn)
	if out != OutcomeMiss {
		t.Fatalf("first join out = %s, want miss", out)
	}
	within(t, f.done, "the flight")
	v, out, err := c.Do(context.Background(), context.Background(), key(1), fn)
	if err != nil || v != "v" || out != OutcomeHitMem {
		t.Fatalf("Do after the flight: v=%v out=%s err=%v, want a hit", v, out, err)
	}
	if _, err := c.Wait(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	if st := c.Stats(); st.MemHits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.MemHits, st.Misses)
	}
}

// TestMemoInFlightNeverEvicted fills the LRU bound past max while a
// flight is open: the finished entries evict each other, the flight is
// neither counted nor evicted, and its result is stored when it ends.
func TestMemoInFlightNeverEvicted(t *testing.T) {
	c := newMemo(t, Options{MaxEntries: 2})
	release := make(chan struct{})
	flight := key(100)
	_, f, _ := c.Join(context.Background(), flight, true,
		func(context.Context) (any, error) {
			<-release
			return "flown", nil
		})
	for i := 0; i < 5; i++ {
		c.Put(key(i), i)
	}
	if st := c.Stats(); st.Entries != 2 || st.Evicted != 3 {
		t.Fatalf("stats with a flight open = %+v, want 2 entries, 3 evicted", st)
	}
	c.mu.Lock()
	open := c.flights[flight] == f
	c.mu.Unlock()
	if !open {
		t.Fatal("the in-flight entry was evicted")
	}
	close(release)
	if v, err := c.Wait(context.Background(), f); err != nil || v != "flown" {
		t.Fatalf("flight value = %v, %v", v, err)
	}
	if v, ok := c.Get(flight); !ok || v != "flown" {
		t.Errorf("finished flight not stored: %v %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want the bound 2", c.Len())
	}
}

// TestMemoDoFailureNotStored proves a failed fn leaves no entry: the
// error reaches the caller and the next Do computes afresh.
func TestMemoDoFailureNotStored(t *testing.T) {
	c := newMemo(t, Options{MaxEntries: 8})
	boom := errors.New("boom")
	_, out, err := c.Do(context.Background(), context.Background(), key(1),
		func(context.Context) (any, error) { return nil, boom })
	if !errors.Is(err, boom) || out != OutcomeMiss {
		t.Fatalf("failed Do: out=%s err=%v", out, err)
	}
	c.mu.Lock()
	n := len(c.flights) + len(c.items)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("failed flight left %d entries", n)
	}
	v, out, err := c.Do(context.Background(), context.Background(), key(1),
		func(context.Context) (any, error) { return "ok", nil })
	if err != nil || out != OutcomeMiss || v != "ok" {
		t.Errorf("retry after failure: v=%v out=%s err=%v", v, out, err)
	}
}

// TestMemoDoPanicFailsClosed proves a panicking fn fails its flight
// instead of the process: every waiter gets a *sched.PanicError carrying
// the panic value and stack, nothing is stored, and the next Do computes
// afresh.
func TestMemoDoPanicFailsClosed(t *testing.T) {
	c := newMemo(t, Options{MaxEntries: 8})
	_, out, err := c.Do(context.Background(), context.Background(), key(1),
		func(context.Context) (any, error) { panic("boom") })
	var pe *sched.PanicError
	if !errors.As(err, &pe) || out != OutcomeMiss {
		t.Fatalf("panicking Do: out=%s err=%v, want a miss ending in *sched.PanicError", out, err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic details lost: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
	if st := c.Stats(); st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("panicked flight stored: %+v", st)
	}
	v, out, err := c.Do(context.Background(), context.Background(), key(1),
		func(context.Context) (any, error) { return "ok", nil })
	if err != nil || out != OutcomeMiss || v != "ok" {
		t.Errorf("retry after panic: v=%v out=%s err=%v", v, out, err)
	}
}

// TestMemoDoServesDiskTier proves Do reads the spill tier before running
// anything: a fresh store over a directory another store spilled to
// serves the artifact as a disk hit without calling fn, and stores
// nothing new.
func TestMemoDoServesDiskTier(t *testing.T) {
	dir := t.TempDir()
	warm, err := New[artifact]("thermal", Options{Dir: dir}, JSONCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Put(key(1), artifact{Name: "spilled", Vals: []float64{1.5}}).Spilled {
		t.Fatal("artifact not spilled")
	}
	cold, err := New[artifact]("thermal", Options{Dir: dir}, JSONCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	v, out, err := cold.Do(context.Background(), context.Background(), key(1),
		func(context.Context) (artifact, error) {
			t.Error("fn ran for a spilled artifact")
			return artifact{}, nil
		})
	if err != nil || out != OutcomeHitDisk || v.Name != "spilled" || len(v.Vals) != 1 {
		t.Fatalf("Do over the spill tier: v=%+v out=%s err=%v", v, out, err)
	}
	if st := cold.Stats(); st.DiskHits != 1 || st.Puts != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 disk hit promoted to memory, no puts", st)
	}
	// The promoted artifact is now a memory hit.
	if _, out, _ := cold.Do(context.Background(), context.Background(), key(1),
		func(context.Context) (artifact, error) { return artifact{}, errors.New("ran") }); out != OutcomeHitMem {
		t.Errorf("second Do out = %s, want %s", out, OutcomeHitMem)
	}
}
