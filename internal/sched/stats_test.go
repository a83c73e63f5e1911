package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCountersLifecycle checks that successful pool work settles the
// gauges to zero and the cumulative counters to the task count.
func TestCountersLifecycle(t *testing.T) {
	c := NewCounters()
	p := NewPool(3)
	ctx := WithRecorder(context.Background(), c)
	const n = 8
	err := Each(ctx, n, 0, func(ctx context.Context, _ int) error {
		return p.Run(ctx, "stage", func(context.Context) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.QueueDepth(); got != 0 {
		t.Errorf("queue depth after run = %d, want 0", got)
	}
	if got := c.InFlight(); got != 0 {
		t.Errorf("in-flight after run = %d, want 0", got)
	}
	if got := c.Completed(); got != n {
		t.Errorf("completed = %d, want %d", got, n)
	}
	if got := c.Failed(); got != 0 {
		t.Errorf("failed = %d, want 0", got)
	}
}

// TestCountersFailureAndAbandonment checks that a failing task counts as
// failed and that callers cancelled while awaiting a slot are counted out
// of the queue gauge without ever starting.
func TestCountersFailureAndAbandonment(t *testing.T) {
	c := NewCounters()
	p := NewPool(1)
	ctx := WithRecorder(context.Background(), c)
	boom := errors.New("boom")
	release := make(chan struct{})
	holder := hold(ctx, p, release, boom)

	waitCtx, cancel := context.WithCancel(ctx)
	const waiters = 5
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Run(waitCtx, "after", func(context.Context) error { return nil }); !errors.Is(err, context.Canceled) {
				t.Errorf("abandoned caller: got %v, want context.Canceled", err)
			}
		}()
	}
	awaitWaiters(t, p, waiters)
	if got := c.QueueDepth(); got != waiters {
		t.Errorf("queue depth with %d waiters = %d", waiters, got)
	}
	cancel()
	wg.Wait()
	close(release)
	if err := <-holder; !errors.Is(err, boom) {
		t.Fatalf("holder error = %v, want %v", err, boom)
	}
	if got := c.Failed(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
	if got := c.Completed(); got != 0 {
		t.Errorf("completed = %d, want 0", got)
	}
	if got := c.QueueDepth(); got != 0 {
		t.Errorf("queue depth after abandonment = %d, want 0", got)
	}
	if got := c.InFlight(); got != 0 {
		t.Errorf("in-flight after the failure = %d, want 0", got)
	}
}

// TestCountersSharedAcrossRuns runs several fan-outs concurrently against
// one Counters (the rampd usage pattern) and checks the aggregate.
func TestCountersSharedAcrossRuns(t *testing.T) {
	c := NewCounters()
	p := NewPool(2)
	ctx := WithRecorder(context.Background(), c)
	const runs, tasks = 6, 10
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := Each(ctx, tasks, 2, func(ctx context.Context, _ int) error {
				return p.Run(ctx, "stage", func(context.Context) error { return nil })
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := c.Completed(); got != runs*tasks {
		t.Errorf("completed = %d, want %d", got, runs*tasks)
	}
	if got := c.QueueDepth() + c.InFlight(); got != 0 {
		t.Errorf("gauges after all runs = %d, want 0", got)
	}
}

// queueWaitRecorder is a Counters that also implements QueueObserver,
// the shape rampd installs.
type queueWaitRecorder struct {
	*Counters
	mu    sync.Mutex
	waits map[string][]time.Duration
}

func (q *queueWaitRecorder) TaskQueueWait(stage string, d time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.waits == nil {
		q.waits = make(map[string][]time.Duration)
	}
	q.waits[stage] = append(q.waits[stage], d)
}

// TestQueueWaitObserved: a Recorder implementing QueueObserver receives
// one non-negative queue wait per task that got a slot, labelled by
// stage; plain Counters (which deliberately does not implement it) still
// works, which TestCountersLifecycle already covers.
func TestQueueWaitObserved(t *testing.T) {
	rec := &queueWaitRecorder{Counters: NewCounters()}
	p := NewPool(3)
	ctx := WithRecorder(context.Background(), rec)
	const tasks = 12
	err := Each(ctx, tasks, 0, func(ctx context.Context, _ int) error {
		return p.Run(ctx, "fit", func(context.Context) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if got := len(rec.waits["fit"]); got != tasks {
		t.Fatalf("queue waits for stage fit = %d, want %d (map %v)", got, tasks, rec.waits)
	}
	for _, d := range rec.waits["fit"] {
		if d < 0 {
			t.Fatalf("negative queue wait %v", d)
		}
	}
}
