// Package sched is the process's compute pool: a fixed number of slots
// (Default has GOMAXPROCS of them) that every unit of CPU-bound stage work
// — a timing run, a thermal transient, a FIT accumulation, a Monte Carlo
// replica batch — holds while it runs. Callers wait for a slot in arrival
// order, under their own context, and hold it only while their function
// runs. Nothing else waits while holding a slot, so a caller blocked on a
// memo flight (internal/store) holds none, and nested memo lookups cannot
// deadlock however small the pool.
//
// Concurrent studies therefore share one bound: however many are in
// progress, at most Size slot-holding computations run at once. Each fans
// a caller's independent calls out over a bounded set of goroutines, with
// first-error cancellation; Tally turns completions into Progress events.
// A panic in pool work is recovered into a *PanicError. The pool counts
// its own work (Stats), and a traced caller's slot hold is an
// obs.SpanSlot span.
//
// The package adds no synchronisation around task results: callers write
// to disjoint storage (typically their own slice slot), which also makes
// the output independent of slot count and scheduling order — a property
// internal/sim's determinism tests pin down.
package sched

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
)

// Pool is a set of compute slots. Create with NewPool; all methods are safe
// for concurrent use.
type Pool struct {
	size      int
	mu        sync.Mutex
	free      int
	waiters   list.List // of chan struct{}, oldest first
	completed int64
	failed    int64
}

// Stats is a consistent reading of a pool's activity.
type Stats struct {
	// QueueDepth is the number of callers waiting for a slot.
	QueueDepth int64
	// InFlight is the number of slots held.
	InFlight int64
	// Completed and Failed count the calls whose work returned without
	// and with an error.
	Completed, Failed int64
}

// NewPool returns a pool of size slots (at least 1).
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{size: size, free: size}
}

// Default is the process-wide pool every study and Monte Carlo run shares,
// sized to GOMAXPROCS at start-up.
var Default = NewPool(runtime.GOMAXPROCS(0))

// Size returns the pool's slot count.
func (p *Pool) Size() int { return p.size }

// Stats returns the pool's current activity, read under one lock.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		QueueDepth: int64(p.waiters.Len()),
		InFlight:   int64(p.size - p.free),
		Completed:  p.completed,
		Failed:     p.failed,
	}
}

// Run waits for a slot under ctx, runs fn holding it, and releases it. It
// returns ctx.Err() if ctx ends before a slot is free, and fn's error —
// a *PanicError if fn panics — otherwise. When ctx carries a tracer, the
// slot hold is an obs.SpanSlot span whose "stage" attribute is stage and
// whose "wait_ns" attribute is the time spent waiting for the slot.
func (p *Pool) Run(ctx context.Context, stage string, fn func(context.Context) error) (err error) {
	var queued time.Time
	if obs.TracerFrom(ctx) != nil {
		queued = time.Now()
	}
	if err = p.acquire(ctx); err != nil {
		return err
	}
	defer p.release(&err)
	_, sp := obs.StartSpan(ctx, obs.SpanSlot)
	if sp != nil {
		sp.SetAttr("stage", stage)
		sp.SetAttr("wait_ns", strconv.FormatInt(int64(time.Since(queued)), 10))
	}
	// Deferred after the release, so it runs first: the span ends before
	// the slot passes on, so the spans of one slot never overlap, and a
	// panicking span sink still gives the slot back.
	defer sp.Finish()
	return Protect(stage, func() error { return fn(ctx) })
}

// release counts a finished call by its error and hands its slot on.
func (p *Pool) release(err *error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if *err != nil {
		p.failed++
	} else {
		p.completed++
	}
	p.releaseLocked()
}

// acquire takes a slot, queueing behind earlier callers when none is free.
func (p *Pool) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.mu.Lock()
	if p.free > 0 && p.waiters.Len() == 0 {
		p.free--
		p.mu.Unlock()
		return nil
	}
	ready := make(chan struct{})
	el := p.waiters.PushBack(ready)
	p.mu.Unlock()
	select {
	case <-ready:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		select {
		case <-ready:
			// Handed a slot as ctx ended: pass it on.
			p.releaseLocked()
		default:
			p.waiters.Remove(el)
		}
		p.mu.Unlock()
		return ctx.Err()
	}
}

// releaseLocked hands the slot to the oldest waiter, or frees it. The
// caller holds p.mu.
func (p *Pool) releaseLocked() {
	if front := p.waiters.Front(); front != nil {
		close(p.waiters.Remove(front).(chan struct{}))
		return
	}
	p.free++
}

// Each calls fn(ctx, i) for every i in [0, n), handing indices out in
// ascending order to at most limit goroutines (limit < 1: n). fn holds no
// slot; it takes one through Pool.Run for its CPU-bound part. The first
// error — a *PanicError if fn panics — cancels the context of the calls
// still running and stops the rest; Each returns it, or ctx.Err() when
// ctx ended first.
func Each(ctx context.Context, n, limit int, fn func(ctx context.Context, i int) error) error {
	if limit < 1 || limit > n {
		limit = n
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next  atomic.Int64
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < limit; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := Protect(strconv.Itoa(i), func() error { return fn(ctx, i) }); err != nil {
					once.Do(func() { first = err; cancel() })
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := parent.Err(); err != nil && (first == nil || errors.Is(first, err)) {
		return err
	}
	return first
}

// PanicError wraps a panic recovered from pool work or a memo flight.
type PanicError struct {
	// Task names the work that panicked (its stage, index or memo key).
	Task string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error describes the panic without the stack (retrieve it from the field).
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task %s panicked: %v", e.Task, e.Value)
}

// Protect runs fn, converting a panic into a *PanicError naming task.
func Protect(task string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Task: task, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Progress is a snapshot of a run's completion, delivered after each task
// finishes. Counters are consistent with each other but the callback may
// observe them out of completion order under parallelism.
type Progress struct {
	// Task and Stage identify the task that just finished.
	Task, Stage string
	// Err is the task's error, nil on success.
	Err error
	// Done and Total count finished and planned tasks run-wide.
	Done, Total int
	// StageDone and StageTotal count finished and planned tasks within
	// the finished task's stage.
	StageDone, StageTotal int
}

// Tally counts finished tasks against fixed per-stage totals and reports
// each to a progress callback. A nil *Tally ignores completions.
type Tally struct {
	on         func(Progress)
	mu         sync.Mutex
	done       int
	total      int
	stageDone  map[string]int
	stageTotal map[string]int
}

// NewTally returns a tally over the planned per-stage task counts, or nil
// when on is nil.
func NewTally(on func(Progress), totals map[string]int) *Tally {
	if on == nil {
		return nil
	}
	t := &Tally{on: on, stageDone: make(map[string]int, len(totals)), stageTotal: totals}
	for _, n := range totals {
		t.total += n
	}
	return t
}

// Done records one finished task and calls the callback, outside the
// tally's lock, with the updated counts.
func (t *Tally) Done(task, stage string, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.done++
	t.stageDone[stage]++
	p := Progress{Task: task, Stage: stage, Err: err, Done: t.done, Total: t.total,
		StageDone: t.stageDone[stage], StageTotal: t.stageTotal[stage]}
	t.mu.Unlock()
	t.on(p)
}
