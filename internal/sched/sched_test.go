package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitWaiters spins until n callers are queued for a slot of p: a
// deterministic hand-off on the pool's own state, not a timed sleep. It
// fails the test after a minute, so a hang reads as a failure.
func awaitWaiters(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		p.mu.Lock()
		got := p.waiters.Len()
		p.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers queued, want %d", got, n)
		}
		runtime.Gosched()
	}
}

// hold occupies one slot of p until release is closed, returning once the
// slot is held and a channel carrying Run's error.
func hold(ctx context.Context, p *Pool, release <-chan struct{}, err error) <-chan error {
	held := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- p.Run(ctx, "hold", func(context.Context) error {
			close(held)
			<-release
			return err
		})
	}()
	<-held
	return done
}

// TestRunBoundsParallelism: a pool of k slots runs k callers at once and
// queues the next; under load the number of callers inside fn never
// exceeds k.
func TestRunBoundsParallelism(t *testing.T) {
	const limit = 3
	p := NewPool(limit)
	release := make(chan struct{})
	var holders []<-chan error
	for i := 0; i < limit; i++ {
		holders = append(holders, hold(context.Background(), p, release, nil))
	}
	ran := make(chan struct{})
	extra := make(chan error, 1)
	go func() {
		extra <- p.Run(context.Background(), "extra", func(context.Context) error {
			close(ran)
			return nil
		})
	}()
	awaitWaiters(t, p, 1)
	select {
	case <-ran:
		t.Fatal("a caller ran while every slot was held")
	default:
	}
	close(release)
	for _, h := range holders {
		if err := <-h; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-extra; err != nil {
		t.Fatal(err)
	}

	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Run(context.Background(), "load", func(context.Context) error {
				n := cur.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				runtime.Gosched()
				cur.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > limit {
		t.Fatalf("observed %d concurrent callers, limit %d", got, limit)
	}
}

// TestRunRecoversPanics: a panic in pool work or in an Each call becomes a
// *PanicError with the value and stack, and the panicking caller's slot
// is released.
func TestRunRecoversPanics(t *testing.T) {
	p := NewPool(1)
	err := p.Run(context.Background(), "explode", func(context.Context) error { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %T (%v), want *PanicError", err, err)
	}
	if pe.Task != "explode" || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("panic details lost: %+v", pe)
	}
	if err := p.Run(context.Background(), "after", func(context.Context) error { return nil }); err != nil {
		t.Fatalf("slot not released after a panic: %v", err)
	}
	err = Each(context.Background(), 4, 2, func(_ context.Context, i int) error {
		if i == 2 {
			panic("each")
		}
		return nil
	})
	if !errors.As(err, &pe) || pe.Value != "each" || pe.Task != "2" {
		t.Fatalf("Each: got %v, want *PanicError for index 2", err)
	}
}

// TestRunContextCancellation: a caller whose context ends while it waits
// for a slot returns ctx.Err() without running fn and leaks no slot; a
// caller whose context has already ended does not queue at all.
func TestRunContextCancellation(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	holder := hold(context.Background(), p, release, nil)

	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() {
		waited <- p.Run(ctx, "waiter", func(context.Context) error {
			t.Error("a cancelled waiter ran")
			return nil
		})
	}()
	awaitWaiters(t, p, 1)
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: got %v, want context.Canceled", err)
	}
	awaitWaiters(t, p, 0)
	if err := p.Run(ctx, "late", func(context.Context) error {
		t.Error("a caller with an ended context ran")
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ended context: got %v, want context.Canceled", err)
	}

	close(release)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	free, queued := p.free, p.waiters.Len()
	p.mu.Unlock()
	if free != 1 || queued != 0 {
		t.Fatalf("after cancellation: %d free slots, %d waiters; want 1 and 0", free, queued)
	}
}

// TestMap: Each over every index of a range adds each exactly once, and an
// index's error is returned.
func TestMap(t *testing.T) {
	var sum atomic.Int64
	err := Each(context.Background(), 100, 8, func(_ context.Context, i int) error {
		sum.Add(int64(i))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", sum.Load())
	}
	boom := errors.New("boom")
	err = Each(context.Background(), 4, 1, func(_ context.Context, i int) error {
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

// TestMapChunksCoversEveryIndexOnce: Each runs every index exactly once,
// whatever the goroutine bound, and never more calls at once than it.
func TestMapChunksCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, limit int }{{100, 4}, {100, 1}, {5, 8}, {64, 0}} {
		hits := make([]atomic.Int64, tc.n)
		var cur, peak atomic.Int64
		err := Each(context.Background(), tc.n, tc.limit, func(_ context.Context, i int) error {
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			hits[i].Add(1)
			cur.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d limit=%d: %v", tc.n, tc.limit, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("n=%d limit=%d: index %d ran %d times", tc.n, tc.limit, i, h)
			}
		}
		if tc.limit > 0 && peak.Load() > int64(tc.limit) {
			t.Fatalf("n=%d limit=%d: %d concurrent calls", tc.n, tc.limit, peak.Load())
		}
	}
}

// TestMapChunksEmptyIsNoop: Each over n = 0 calls nothing, whatever the
// goroutine bound.
func TestMapChunksEmptyIsNoop(t *testing.T) {
	called := false
	err := Each(context.Background(), 0, 8, func(context.Context, int) error { called = true; return nil })
	if err != nil || called {
		t.Fatalf("err=%v called=%v, want nil/false", err, called)
	}
}

// TestRunEmptyGraph: an empty fan-out with no bound returns nil at once.
func TestRunEmptyGraph(t *testing.T) {
	if err := Each(context.Background(), 0, 0, func(context.Context, int) error {
		return errors.New("called")
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMapChunksPropagatesError: one failing index among parallel calls
// makes Each return its error.
func TestMapChunksPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := Each(context.Background(), 100, 4, func(_ context.Context, i int) error {
		if i == 50 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestRunFirstErrorCancelsRest: the first error is returned and stops
// the indices not yet handed out.
func TestRunFirstErrorCancelsRest(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := Each(context.Background(), 10, 1, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("%d calls ran, want 4 (none after the failure)", n)
	}
}

// TestEachErrorCancelsInFlightCalls: the first error cancels the context
// of calls still running.
func TestEachErrorCancelsInFlightCalls(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{})
	sawCancel := make(chan struct{}, 1)
	err := Each(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			<-started
			return boom
		}
		close(started)
		select {
		case <-ctx.Done():
			sawCancel <- struct{}{}
			return ctx.Err()
		case <-time.After(time.Minute):
			return errors.New("never cancelled")
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	select {
	case <-sawCancel:
	default:
		t.Fatal("in-flight call did not observe cancellation")
	}
}

// TestEachCancellation: cancelling the caller's context stops Each, which
// returns the context's error rather than a call's wrapped copy of it.
func TestEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Each(ctx, 100, 1, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 5 {
			cancel()
			return errors.Join(errors.New("wrapped"), ctx.Err())
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled itself", err)
	}
	if n := ran.Load(); n != 6 {
		t.Fatalf("%d calls ran after cancellation, want 6", n)
	}
}

// TestRunProgressCounters: a run's Tally reports one event per finished
// task with consistent run-wide and per-stage counts, and a nil tally (no
// callback) ignores completions.
func TestRunProgressCounters(t *testing.T) {
	const perStage = 5
	var mu sync.Mutex
	var events []Progress
	tally := NewTally(func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}, map[string]int{"load": perStage, "eval": perStage})
	err := Each(context.Background(), 2*perStage, 4, func(_ context.Context, i int) error {
		stage := "load"
		if i%2 == 1 {
			stage = "eval"
		}
		tally.Done(stage, stage, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*perStage {
		t.Fatalf("got %d progress events, want %d", len(events), 2*perStage)
	}
	maxDone := 0
	stageMax := map[string]int{}
	for _, p := range events {
		if p.Total != 2*perStage || p.StageTotal != perStage {
			t.Fatalf("totals = %d/%d, want %d/%d", p.Total, p.StageTotal, 2*perStage, perStage)
		}
		maxDone = max(maxDone, p.Done)
		stageMax[p.Stage] = max(stageMax[p.Stage], p.StageDone)
	}
	if maxDone != 2*perStage || stageMax["load"] != perStage || stageMax["eval"] != perStage {
		t.Fatalf("counters never reached totals: done %d, stages %v", maxDone, stageMax)
	}
	if NewTally(nil, map[string]int{"x": 1}) != nil {
		t.Fatal("a tally without a callback is not nil")
	}
	(*Tally)(nil).Done("x", "x", nil)
}
