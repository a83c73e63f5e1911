package sched

import (
	"sync/atomic"
	"time"
)

// Recorder receives the lifecycle events of pool work (Pool.Run) under a
// context that carries it (WithRecorder). All methods are called from the
// working goroutines and must be safe for concurrent use. A single Recorder
// may be shared by any number of concurrent studies (rampd attaches one to
// every study it serves), so implementations should treat the events as
// global aggregates, not per-study state.
type Recorder interface {
	// TaskQueued fires when a caller starts waiting for a pool slot.
	TaskQueued()
	// TaskStarted fires when the caller holds its slot and begins work.
	TaskStarted()
	// TaskFinished fires when the work returns; err is its error.
	TaskFinished(err error)
	// TaskAbandoned fires once per caller whose context ended before it
	// got a slot; it rebalances the queue-depth gauge.
	TaskAbandoned()
}

// StageObserver is an optional Recorder extension: a Recorder that also
// implements it additionally receives each task's wall-clock latency,
// labelled by the task's stage. The pool only pays for the clock reads
// when the installed Recorder implements the interface, so plain Counters
// users (which deliberately do not implement it) are unaffected.
type StageObserver interface {
	// TaskLatency fires after a task's work returns, with the stage label,
	// the time it held its slot, and its error (nil on success). It is
	// called from working goroutines and must be safe for concurrent use.
	TaskLatency(stage string, d time.Duration, err error)
}

// QueueObserver is an optional Recorder extension: a Recorder that also
// implements it additionally receives each task's queue wait — the time
// between asking for a pool slot and getting it — labelled by the task's
// stage. Like StageObserver, the pool only pays for the clock reads when
// the installed Recorder implements the interface.
type QueueObserver interface {
	// TaskQueueWait fires when a task gets its slot, with the stage label
	// and how long it waited. It is called from working goroutines and
	// must be safe for concurrent use.
	TaskQueueWait(stage string, d time.Duration)
}

// Stats is the read side of the pool's observability counters: the
// current queue depth and in-flight gauge plus cumulative completion
// counters. Both rampd's /metrics endpoint and the CLIs' progress wiring
// report from this one source.
type Stats interface {
	// QueueDepth is the number of tasks awaiting a pool slot.
	QueueDepth() int64
	// InFlight is the number of pool slots held.
	InFlight() int64
	// Completed is the cumulative count of tasks that finished without error.
	Completed() int64
	// Failed is the cumulative count of tasks that finished with an error.
	Failed() int64
}

// Counters is the standard Recorder and Stats implementation: four atomic
// counters with no locks, cheap enough to leave attached permanently. The
// zero value is ready to use; NewCounters exists for symmetry.
type Counters struct {
	queued    atomic.Int64
	inFlight  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
}

// NewCounters returns a zeroed counter set.
func NewCounters() *Counters { return &Counters{} }

// TaskQueued implements Recorder.
func (c *Counters) TaskQueued() { c.queued.Add(1) }

// TaskStarted implements Recorder.
func (c *Counters) TaskStarted() {
	c.queued.Add(-1)
	c.inFlight.Add(1)
}

// TaskFinished implements Recorder.
func (c *Counters) TaskFinished(err error) {
	c.inFlight.Add(-1)
	if err != nil {
		c.failed.Add(1)
	} else {
		c.completed.Add(1)
	}
}

// TaskAbandoned implements Recorder.
func (c *Counters) TaskAbandoned() { c.queued.Add(-1) }

// QueueDepth implements Stats.
func (c *Counters) QueueDepth() int64 { return c.queued.Load() }

// InFlight implements Stats.
func (c *Counters) InFlight() int64 { return c.inFlight.Load() }

// Completed implements Stats.
func (c *Counters) Completed() int64 { return c.completed.Load() }

// Failed implements Stats.
func (c *Counters) Failed() int64 { return c.failed.Load() }

// CountersSnapshot is a mutually consistent reading of all four counters.
type CountersSnapshot struct {
	QueueDepth, InFlight, Completed, Failed int64
}

// Snapshot returns a consistent snapshot of the counters. The four values
// are individually atomic but live in separate words, so a naive reader
// can observe a task as simultaneously queued and in flight; Snapshot
// re-reads until two consecutive readings agree (bounded retries), which
// yields a stable point-in-time view whenever the counters quiesce for a
// single read cycle. Under heavy churn the last reading is returned —
// still a set of individually valid values.
func (c *Counters) Snapshot() CountersSnapshot {
	read := func() CountersSnapshot {
		return CountersSnapshot{
			QueueDepth: c.queued.Load(),
			InFlight:   c.inFlight.Load(),
			Completed:  c.completed.Load(),
			Failed:     c.failed.Load(),
		}
	}
	prev := read()
	for i := 0; i < 4; i++ {
		cur := read()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

var (
	_ Recorder = (*Counters)(nil)
	_ Stats    = (*Counters)(nil)
)
