package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }

// TestCacheLRUEviction proves the entry bound holds and eviction is
// least-recently-used, counting Get promotions as use.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(3, 0, nil)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	// Touch k0 so k1 becomes the eviction candidate.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k3", 3)
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.Len())
	}
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 survived eviction despite being least recently used")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
	if st := c.Stats(); st.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", st.Evicted)
	}
}

// TestCacheTTLExpiry proves entries expire on the TTL boundary and are
// reported as expired misses.
func TestCacheTTLExpiry(t *testing.T) {
	clk := newFakeClock()
	c := NewCache(8, time.Minute, clk.now)
	c.Put("k", "v")
	clk.advance(59 * time.Second)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clk.advance(2 * time.Second)
	if _, ok := c.Get("k"); ok {
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
	c.Put("k", "v2")
	clk.advance(30 * time.Second)
	if v, ok := c.Get("k"); !ok || v != "v2" {
		t.Error("refreshed entry not served")
	}
}

// TestCacheHitRatioCounters checks hit/miss accounting.
func TestCacheHitRatioCounters(t *testing.T) {
	c := NewCache(4, 0, nil)
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("b")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
}

// TestCacheDoDedup runs 100 concurrent identical Do calls and proves
// exactly one execution happens, with 99 coalesced followers and one
// lookup counted per call. Run under -race this also exercises the
// result-sharing paths.
func TestCacheDoDedup(t *testing.T) {
	c := NewCache(8, 0, nil)
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	disps := map[string]int{}
	const n = 100
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, disp, err := c.Do(context.Background(), context.Background(), "key",
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
			disps[disp]++
			mu.Unlock()
		}()
	}
	// Let followers pile onto the open flight before releasing the leader.
	deadline := time.After(5 * time.Second)
	for calls.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("leader never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if disps[obs.ResultMiss] != 1 || disps[obs.ResultCoalesced]+disps[obs.ResultHit] != n-1 {
		t.Errorf("dispositions = %v, want 1 miss and %d coalesced or hit", disps, n-1)
	}
	if st := c.Stats(); st.Hits+st.Misses != n {
		t.Errorf("lookups = %d hits + %d misses, want %d in all", st.Hits, st.Misses, n)
	}
}

// TestCacheDoSequentialCalls proves a finished flight leaves a resident
// value, not a leaked flight: the calls after the first are hits and fn
// runs once.
func TestCacheDoSequentialCalls(t *testing.T) {
	c := NewCache(8, 0, nil)
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		v, disp, err := c.Do(context.Background(), context.Background(), "key",
			func(context.Context) (any, error) {
				calls.Add(1)
				return "v", nil
			})
		want := obs.ResultHit
		if i == 0 {
			want = obs.ResultMiss
		}
		if err != nil || v != "v" || disp != want {
			t.Fatalf("call %d: v=%v disp=%s err=%v, want v %s", i, v, disp, err, want)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss, 1 entry", st)
	}
}

// TestCacheDoAbandonCancelsFlight proves that when every waiter gives up,
// the flight context is cancelled and the key is released for a fresh
// computation.
func TestCacheDoAbandonCancelsFlight(t *testing.T) {
	c := NewCache(8, 0, nil)
	flightCancelled := make(chan struct{})
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, context.Background(), "key",
			func(fctx context.Context) (any, error) {
				close(started)
				<-fctx.Done()
				close(flightCancelled)
				return nil, fctx.Err()
			})
		errc <- err
	}()
	<-started
	cancel() // the only waiter gives up
	select {
	case <-flightCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned flight was not cancelled")
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter error = %v, want context.Canceled", err)
	}
	// The key must be free for a fresh run that succeeds.
	v, disp, err := c.Do(context.Background(), context.Background(), "key",
		func(context.Context) (any, error) { return "fresh", nil })
	if err != nil || disp != obs.ResultMiss || v != "fresh" {
		t.Errorf("fresh run after abandonment: v=%v disp=%s err=%v", v, disp, err)
	}
}

// TestCacheDoWaiterSurvivesOtherWaiterTimeout proves one caller's deadline
// does not cancel a flight another caller still wants.
func TestCacheDoWaiterSurvivesOtherWaiterTimeout(t *testing.T) {
	c := NewCache(8, 0, nil)
	release := make(chan struct{})
	started := make(chan struct{})
	patientErr := make(chan error, 1)
	patientVal := make(chan any, 1)
	go func() {
		v, _, err := c.Do(context.Background(), context.Background(), "key",
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
	<-started
	// An impatient follower joins, then times out.
	impatient, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, disp, err := c.Do(impatient, context.Background(), "key",
		func(context.Context) (any, error) { t.Error("follower must not run fn"); return nil, nil })
	if disp != obs.ResultCoalesced || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient follower: disp=%s err=%v", disp, err)
	}
	close(release)
	if err := <-patientErr; err != nil {
		t.Errorf("patient waiter failed: %v", err)
	}
	if v := <-patientVal; v != "done" {
		t.Errorf("patient waiter got %v, want done", v)
	}
}

// TestCacheDoJustAfterFlightIsHit covers the race between a finished
// flight and the next request for its key: a Do arriving after the flight
// ends finds the stored value — a hit — and fn ran once.
func TestCacheDoJustAfterFlightIsHit(t *testing.T) {
	c := NewCache(8, 0, nil)
	var calls atomic.Int64
	fn := func(context.Context) (any, error) {
		calls.Add(1)
		return "v", nil
	}
	// join starts the flight without waiting on it, as a request that has
	// not yet reached its wait would.
	_, e, disp := c.join(context.Background(), "key", true, fn)
	if disp != obs.ResultMiss {
		t.Fatalf("first join disp = %s, want miss", disp)
	}
	<-e.done
	v, disp, err := c.Do(context.Background(), context.Background(), "key", fn)
	if err != nil || v != "v" || disp != obs.ResultHit {
		t.Fatalf("Do after the flight: v=%v disp=%s err=%v, want a hit", v, disp, err)
	}
	if _, err := c.wait(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

// TestCacheInFlightNeverEvicted fills the LRU bound past max while a
// flight is open: the finished entries evict each other, the flight is
// neither counted nor evicted, and its result is stored when it ends.
func TestCacheInFlightNeverEvicted(t *testing.T) {
	c := NewCache(2, 0, nil)
	release := make(chan struct{})
	done := make(chan any, 1)
	go func() {
		v, _, _ := c.Do(context.Background(), context.Background(), "flight",
			func(context.Context) (any, error) {
				<-release
				return "flown", nil
			})
		done <- v
	}()
	for {
		c.mu.Lock()
		_, open := c.items["flight"]
		c.mu.Unlock()
		if open {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if st := c.Stats(); st.Entries != 2 || st.Evicted != 3 {
		t.Fatalf("stats with a flight open = %+v, want 2 entries, 3 evicted", st)
	}
	c.mu.Lock()
	e := c.items["flight"]
	c.mu.Unlock()
	if e == nil || e.done == nil {
		t.Fatal("the in-flight entry was evicted")
	}
	close(release)
	if v := <-done; v != "flown" {
		t.Fatalf("flight value = %v", v)
	}
	if v, ok := c.Get("flight"); !ok || v != "flown" {
		t.Errorf("finished flight not stored: %v %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want the bound 2", c.Len())
	}
}

// TestCacheDoFailureNotStored proves a failed fn leaves no entry: the
// error reaches the caller and the next Do computes afresh.
func TestCacheDoFailureNotStored(t *testing.T) {
	c := NewCache(8, 0, nil)
	boom := errors.New("boom")
	_, disp, err := c.Do(context.Background(), context.Background(), "key",
		func(context.Context) (any, error) { return nil, boom })
	if !errors.Is(err, boom) || disp != obs.ResultMiss {
		t.Fatalf("failed Do: disp=%s err=%v", disp, err)
	}
	c.mu.Lock()
	n := len(c.items)
	c.mu.Unlock()
	if n != 0 || c.Len() != 0 {
		t.Fatalf("failed flight left %d map entries, %d resident", n, c.Len())
	}
	v, disp, err := c.Do(context.Background(), context.Background(), "key",
		func(context.Context) (any, error) { return "ok", nil })
	if err != nil || disp != obs.ResultMiss || v != "ok" {
		t.Errorf("retry after failure: v=%v disp=%s err=%v", v, disp, err)
	}
}
