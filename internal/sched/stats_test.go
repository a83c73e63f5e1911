package sched

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
)

// TestCountersLifecycle checks that successful pool work settles the
// gauges to zero and the cumulative counters to the task count.
func TestCountersLifecycle(t *testing.T) {
	p := NewPool(3)
	const n = 8
	err := Each(context.Background(), n, 0, func(ctx context.Context, _ int) error {
		return p.Run(ctx, "stage", func(context.Context) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Stats(), (Stats{Completed: n}); got != want {
		t.Errorf("stats after run = %+v, want %+v", got, want)
	}
}

// TestCountersFailureAndAbandonment checks that a failing task counts as
// failed and that callers cancelled while awaiting a slot leave the queue
// without ever starting.
func TestCountersFailureAndAbandonment(t *testing.T) {
	p := NewPool(1)
	ctx := context.Background()
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
	if got, want := p.Stats(), (Stats{QueueDepth: waiters, InFlight: 1}); got != want {
		t.Errorf("stats with %d waiters = %+v, want %+v", waiters, got, want)
	}
	cancel()
	wg.Wait()
	close(release)
	if err := <-holder; !errors.Is(err, boom) {
		t.Fatalf("holder error = %v, want %v", err, boom)
	}
	if got, want := p.Stats(), (Stats{Failed: 1}); got != want {
		t.Errorf("stats after abandonment and the failure = %+v, want %+v", got, want)
	}
}

// TestCountersSharedAcrossRuns runs several fan-outs concurrently on one
// pool (the rampd usage pattern) and checks the aggregate.
func TestCountersSharedAcrossRuns(t *testing.T) {
	p := NewPool(2)
	const runs, tasks = 6, 10
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := Each(context.Background(), tasks, 2, func(ctx context.Context, _ int) error {
				return p.Run(ctx, "stage", func(context.Context) error { return nil })
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got, want := p.Stats(), (Stats{Completed: runs * tasks}); got != want {
		t.Errorf("stats after all runs = %+v, want %+v", got, want)
	}
}

// slotWaits returns the "wait_ns" attribute of every slot span collected
// for stage.
func slotWaits(t *testing.T, col *obs.Collector, stage string) []time.Duration {
	t.Helper()
	var waits []time.Duration
	for _, sp := range col.Spans() {
		if sp.Name != obs.SpanSlot {
			continue
		}
		attrs := map[string]string{}
		for _, a := range sp.Attrs() {
			attrs[a.Key] = a.Value
		}
		if attrs["stage"] != stage {
			continue
		}
		ns, err := strconv.ParseInt(attrs["wait_ns"], 10, 64)
		if err != nil {
			t.Fatalf("slot span wait_ns %q: %v", attrs["wait_ns"], err)
		}
		waits = append(waits, time.Duration(ns))
	}
	return waits
}

// TestQueueWaitObserved: under a tracer, every task that got a slot ends
// one slot span labelled with its stage and a non-negative queue wait; a
// caller that queued behind a held slot waited at least until the holder
// released it; an abandoned caller ends no span.
func TestQueueWaitObserved(t *testing.T) {
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	p := NewPool(3)
	const tasks = 12
	err := Each(ctx, tasks, 0, func(ctx context.Context, _ int) error {
		return p.Run(ctx, "fit", func(context.Context) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	waits := slotWaits(t, col, "fit")
	if len(waits) != tasks {
		t.Fatalf("slot spans for stage fit = %d, want %d", len(waits), tasks)
	}
	for _, d := range waits {
		if d < 0 {
			t.Fatalf("negative queue wait %v", d)
		}
	}

	// Contended: one caller queues behind a held slot, another gives up.
	one := NewPool(1)
	release := make(chan struct{})
	holder := hold(ctx, one, release, nil)
	abandonCtx, cancel := context.WithCancel(ctx)
	abandoned := make(chan error, 1)
	go func() {
		abandoned <- one.Run(abandonCtx, "abandoned", func(context.Context) error { return nil })
	}()
	awaitWaiters(t, one, 1)
	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned caller: got %v, want context.Canceled", err)
	}
	waited := make(chan error, 1)
	go func() {
		waited <- one.Run(ctx, "queued", func(context.Context) error { return nil })
	}()
	awaitWaiters(t, one, 1)
	// Hold the slot a measurable while after the caller queued.
	seen := time.Now()
	for time.Since(seen) < time.Millisecond {
		runtime.Gosched()
	}
	released := time.Now()
	close(release)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	queued := slotWaits(t, col, "queued")
	if len(queued) != 1 || queued[0] < released.Sub(seen) {
		t.Errorf("queued caller's waits = %v, want one of at least %v", queued, released.Sub(seen))
	}
	if n := len(slotWaits(t, col, "abandoned")); n != 0 {
		t.Errorf("abandoned caller ended %d slot spans, want 0", n)
	}
}
