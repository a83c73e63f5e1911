// Package jobs is the asynchronous job-queue subsystem behind the batch
// study API: a bounded FIFO of content-addressed jobs executed by a fixed
// worker pool, with deduplication, per-tenant admission quotas, retry with
// backoff for transient failures, and TTL'd retention of finished work.
//
// The package is deliberately ignorant of HTTP and of the simulation: a
// job carries an opaque payload and a content-address key, and an
// injectable Executor turns the payload into a result. The serving layer
// supplies an executor that routes through its result memo, so a batch
// job deduplicates against interactive traffic exactly like a blocking
// request would.
//
// Lifecycle FSM:
//
//	queued ──▶ running ──▶ done
//	   │           │  ╲──▶ failed      (attempts exhausted, or permanent)
//	   │           │  ╲──▶ queued      (transient failure, retry w/ backoff)
//	   ╰──▶ cancelled ◀────╯           (explicit cancel, any non-terminal state)
//
// done, failed, and cancelled are terminal; a terminal job never changes
// state again and is swept from the queue's indexes once its TTL expires.
package jobs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: admitted and waiting for a worker (also the state a
	// transiently failed job returns to while it awaits its retry).
	StateQueued State = "queued"
	// StateRunning: an executor is working on the job right now.
	StateRunning State = "running"
	// StateDone: the executor returned a result; terminal.
	StateDone State = "done"
	// StateFailed: the executor failed permanently or exhausted its
	// attempts; terminal.
	StateFailed State = "failed"
	// StateCancelled: the job was cancelled before it produced a result;
	// terminal.
	StateCancelled State = "cancelled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// validTransition is the FSM edge set. Self-transitions are invalid; the
// queued→queued retry edge passes through running first.
func validTransition(from, to State) bool {
	switch from {
	case StateQueued:
		return to == StateRunning || to == StateCancelled
	case StateRunning:
		return to == StateDone || to == StateFailed || to == StateQueued || to == StateCancelled
	default: // terminal
		return false
	}
}

// Kind labels what an executor should do with a job's payload. The queue
// treats it as opaque; the serving layer defines the vocabulary
// ("study", "mc").
type Kind string

// Origin records where a job came from, so executor spans and logs stay
// attributable to the submitting request end to end. The queue carries it
// opaquely; when deduplication folds identical submissions into one job,
// the first submitter's origin wins.
type Origin struct {
	// RequestID is the X-Request-ID of the submitting HTTP request.
	RequestID string
	// Traceparent is the W3C traceparent the submission carried (the
	// server's child context, rendered), "" when none.
	Traceparent string
}

// Job is one unit of queued work. All mutable state is guarded by mu;
// readers use Snapshot. The queue is the only writer of state transitions.
type Job struct {
	// ID is the queue-unique job identifier.
	ID string
	// Key is the job's content address: two jobs with equal keys compute
	// the same thing, which is what the dedup index exploits.
	Key string
	// Kind routes the payload inside the executor.
	Kind Kind
	// Tenant is the admission-quota bucket the job was charged to.
	Tenant string
	// Origin attributes the job to its submitting request, immutable
	// after submission.
	Origin Origin
	// Payload is the executor's input, immutable after submission.
	Payload any

	mu        sync.Mutex
	state     State
	attempts  int
	percent   float64
	err       error
	result    any
	createdAt time.Time
	startedAt time.Time
	doneAt    time.Time
	cancel    context.CancelFunc // set while running
	cancelled bool               // latched by Cancel so a queued job skips execution
}

// Snapshot is a consistent, JSON-marshalable view of a job.
type Snapshot struct {
	ID       string  `json:"id"`
	Key      string  `json:"key"`
	Kind     Kind    `json:"kind"`
	Tenant   string  `json:"tenant,omitempty"`
	State    State   `json:"state"`
	Percent  float64 `json:"percent"`
	Attempts int     `json:"attempts"`
	Error    string  `json:"error,omitempty"`
	// QueuedMS and RunMS are the times spent waiting and executing so
	// far (or in total, once terminal), in milliseconds.
	QueuedMS float64 `json:"queued_ms"`
	RunMS    float64 `json:"run_ms"`
}

// Snapshot returns the job's current view; now supplies the clock for the
// elapsed-time fields.
func (j *Job) Snapshot(now time.Time) Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:       j.ID,
		Key:      j.Key,
		Kind:     j.Kind,
		Tenant:   j.Tenant,
		State:    j.state,
		Percent:  j.percent,
		Attempts: j.attempts,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	switch {
	case j.startedAt.IsZero():
		s.QueuedMS = ms(now.Sub(j.createdAt))
	default:
		s.QueuedMS = ms(j.startedAt.Sub(j.createdAt))
		end := j.doneAt
		if end.IsZero() {
			end = now
		}
		s.RunMS = ms(end.Sub(j.startedAt))
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the executor's result once the job is done.
func (j *Job) Result() (any, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// Err returns the terminal error of a failed or cancelled job.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateFailed && j.state != StateCancelled {
		return nil
	}
	return j.err
}

// SetPercent publishes execution progress in [0,100]; executors call it
// from worker goroutines. No-op outside the running state.
func (j *Job) SetPercent(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	j.mu.Lock()
	if j.state == StateRunning && p > j.percent {
		j.percent = p
	}
	j.mu.Unlock()
}

// transition moves the job along an FSM edge, returning an error on an
// invalid move. Callers pass a closure mutating the state-adjacent fields
// under the same critical section.
func (j *Job) transition(to State, with func()) (State, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	from := j.state
	if !validTransition(from, to) {
		return from, fmt.Errorf("jobs: invalid transition %s→%s for job %s", from, to, j.ID)
	}
	j.state = to
	if with != nil {
		with()
	}
	return from, nil
}
