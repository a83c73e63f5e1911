package obs

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"
)

// The run ledger: one structured record per study, Monte Carlo run, or
// batch-job execution, retained in a bounded ring. Counters answer "how
// is the service doing"; the ledger answers "what did THIS study cost,
// which stage dominated, and which cache saved it" — the per-run
// attribution the sharded fan-out and the DRM scenario matrix both need.
// Records are assembled by the serving layer from a RunStats span sink
// (riding the tracers the handlers already install) and appended to a
// Ledger, which serves /v1/ops/runs, /v1/ops/tail, and Runner.Runs.

// RunRecord outcome values.
const (
	// RunOK: the run completed successfully.
	RunOK = "ok"
	// RunError: the run failed with a non-cancellation error.
	RunError = "error"
	// RunCancelled: the run was cancelled (client gone, job cancelled).
	RunCancelled = "cancelled"
	// RunDeadline: the run exceeded its compute deadline.
	RunDeadline = "deadline"
)

// OutcomeFor classifies an execution error into a run outcome.
func OutcomeFor(err error) string {
	switch {
	case err == nil:
		return RunOK
	case errors.Is(err, context.DeadlineExceeded):
		return RunDeadline
	case errors.Is(err, context.Canceled):
		return RunCancelled
	default:
		return RunError
	}
}

// RunRecord result-cache provenance values.
const (
	// ResultHit: the finished result was served from the result cache.
	ResultHit = "hit"
	// ResultMiss: this run led the computation.
	ResultMiss = "miss"
	// ResultCoalesced: the run piggybacked on an identical in-flight
	// computation (a follower of its memo flight).
	ResultCoalesced = "coalesced"
)

// StageCost aggregates one pipeline stage's cost within a run.
//
// Field order is part of the record's byte-stable JSON encoding — append
// only.
type StageCost struct {
	// Count is the number of completed spans for the stage.
	Count int `json:"count"`
	// WallMS is the stage's wall-clock footprint: latest span end minus
	// earliest span start, so parallel cells are not double-counted.
	WallMS float64 `json:"wall_ms"`
	// CPUMS is the summed duration of every span — the compute the stage
	// actually burned across workers.
	CPUMS float64 `json:"cpu_ms"`
}

// CacheCost aggregates one stage cache's traffic within a run.
//
// Field order is part of the record's byte-stable JSON encoding — append
// only.
type CacheCost struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Puts   int `json:"puts"`
	Spills int `json:"spills"`
}

// RunRecord is one completed run as the ledger records it: identity
// (what ran, for whom, under which trace), configuration (fidelity,
// mechanisms), and cost (wall, queue, CPU, per-stage and per-cache
// breakdowns). It is also the wire schema of /v1/ops/runs — the struct
// field order plus encoding/json's sorted map keys make the encoding
// byte-stable, which the golden test pins. Extend by appending fields
// only.
type RunRecord struct {
	// ID is the ledger-assigned sequence number, monotonically increasing
	// per ledger; it doubles as the eviction order of the ring.
	ID uint64 `json:"id"`
	// Kind classifies the run: "study", "study.stream", "mc", or
	// "job.<kind>" for batch-job executions.
	Kind string `json:"kind"`
	// Key is the content-addressed study (or MC study) key.
	Key string `json:"key,omitempty"`
	// Tenant is the submitting tenant ("default" when none was named).
	Tenant string `json:"tenant,omitempty"`
	// RequestID is the X-Request-ID of the originating HTTP request.
	RequestID string `json:"request_id,omitempty"`
	// TraceID is the W3C trace ID that accompanied (or was minted for)
	// the originating request — the join key against distributed traces
	// and histogram exemplars.
	TraceID string `json:"trace_id,omitempty"`
	// JobID is set for batch-job executions.
	JobID string `json:"job_id,omitempty"`
	// Attempt is the 1-based execution attempt for batch jobs.
	Attempt int `json:"attempt,omitempty"`
	// Fidelity is the effective fidelity mode ("exact" when unset).
	Fidelity string `json:"fidelity,omitempty"`
	// Mechanisms is the canonical failure-mechanism set (empty = default).
	Mechanisms []string `json:"mechanisms,omitempty"`
	// Outcome is one of the Run* constants.
	Outcome string `json:"outcome"`
	// Error is the failure message when Outcome != RunOK.
	Error string `json:"error,omitempty"`
	// ResultCache is the result-cache provenance (Result* constants).
	ResultCache string `json:"result_cache,omitempty"`
	// Start is when serving began, UTC.
	Start time.Time `json:"start"`
	// WallMS is the end-to-end serving time.
	WallMS float64 `json:"wall_ms"`
	// QueueMS is time spent waiting before execution (admission or job
	// queue).
	QueueMS float64 `json:"queue_ms,omitempty"`
	// CPUMS is the total span-timed compute across all stages.
	CPUMS float64 `json:"cpu_ms,omitempty"`
	// Instructions is the simulated instruction count the run represents
	// (per-profile instructions × profiles), 0 when unknown.
	Instructions int64 `json:"instructions,omitempty"`
	// Cells and CellsComputed count finished (app × tech) cells and the
	// subset that actually ran the thermal transient.
	Cells         int `json:"cells,omitempty"`
	CellsComputed int `json:"cells_computed,omitempty"`
	// Replicas is the Monte Carlo replica count executed by the run.
	Replicas int `json:"replicas,omitempty"`
	// Stages breaks compute down per pipeline stage ("timing", "thermal",
	// "fit", "mc").
	Stages map[string]StageCost `json:"stages,omitempty"`
	// Cache breaks stage-cache traffic down per stage cache.
	Cache map[string]CacheCost `json:"cache,omitempty"`
}

// RunStats is a SpanSink that aggregates one run's spans into the cost
// fields of a RunRecord: stage spans into StageCost, store.get/put spans
// into CacheCost, cell spans into cell counts, MC batches into replica
// counts. Add it to the MultiSink of the tracer serving the run, then
// Fill the assembled record. Safe for concurrent use.
type RunStats struct {
	mu       sync.Mutex
	stages   map[string]*stageAgg
	cache    map[string]*CacheCost
	cells    int
	computed int
	replicas int
}

type stageAgg struct {
	count    int
	earliest time.Time
	latest   time.Time
	cpu      time.Duration
}

// NewRunStats returns an empty per-run aggregator.
func NewRunStats() *RunStats {
	return &RunStats{
		stages: make(map[string]*stageAgg),
		cache:  make(map[string]*CacheCost),
	}
}

// SpanEnded implements SpanSink.
func (r *RunStats) SpanEnded(sp *Span) {
	switch sp.Name {
	case SpanTiming:
		if !joined(sp) {
			r.observeStage("timing", sp)
		}
	case SpanThermal:
		r.observeStage("thermal", sp)
	case SpanFIT:
		r.observeStage("fit", sp)
	case SpanMCBatch:
		r.observeStage("mc", sp)
		n := 0
		for _, a := range sp.Attrs() {
			if a.Key == "replicas" {
				n, _ = strconv.Atoi(a.Value)
			}
		}
		r.mu.Lock()
		r.replicas += n
		r.mu.Unlock()
	case SpanCell:
		computed := false
		for _, a := range sp.Attrs() {
			if a.Key == "source" && a.Value == "computed" {
				computed = true
			}
		}
		r.mu.Lock()
		r.cells++
		if computed {
			r.computed++
		}
		r.mu.Unlock()
	case SpanCacheGet, SpanCachePut:
		var stage, result string
		spilled := false
		for _, a := range sp.Attrs() {
			switch a.Key {
			case "stage":
				stage = a.Value
			case "result":
				result = a.Value
			case "spilled":
				spilled = a.Value == "true"
			}
		}
		if stage == "" {
			return
		}
		r.mu.Lock()
		c := r.cache[stage]
		if c == nil {
			c = &CacheCost{}
			r.cache[stage] = c
		}
		if sp.Name == SpanCacheGet {
			switch result {
			case "hit":
				c.Hits++
			case "miss":
				c.Misses++
			}
		} else {
			c.Puts++
			if spilled {
				c.Spills++
			}
		}
		r.mu.Unlock()
	}
}

func (r *RunStats) observeStage(stage string, sp *Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.stages[stage]
	if a == nil {
		a = &stageAgg{earliest: sp.Start, latest: sp.End}
		r.stages[stage] = a
	}
	if sp.Start.Before(a.earliest) {
		a.earliest = sp.Start
	}
	if sp.End.After(a.latest) {
		a.latest = sp.End
	}
	a.count++
	a.cpu += sp.End.Sub(sp.Start)
}

// Fill merges the aggregated costs into rec, adding to (never replacing)
// anything already present — so a handler can combine the stats of a
// coalesced flight with its own handler-level stats in one record.
func (r *RunStats) Fill(rec *RunRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for stage, a := range r.stages {
		if rec.Stages == nil {
			rec.Stages = make(map[string]StageCost)
		}
		sc := rec.Stages[stage]
		sc.Count += a.count
		sc.WallMS += float64(a.latest.Sub(a.earliest)) / float64(time.Millisecond)
		sc.CPUMS += float64(a.cpu) / float64(time.Millisecond)
		rec.Stages[stage] = sc
		rec.CPUMS += float64(a.cpu) / float64(time.Millisecond)
	}
	for stage, c := range r.cache {
		if rec.Cache == nil {
			rec.Cache = make(map[string]CacheCost)
		}
		cc := rec.Cache[stage]
		cc.Hits += c.Hits
		cc.Misses += c.Misses
		cc.Puts += c.Puts
		cc.Spills += c.Spills
		rec.Cache[stage] = cc
	}
	rec.Cells += r.cells
	rec.CellsComputed += r.computed
	rec.Replicas += r.replicas
}

// RunFilter selects records from a Ledger. Zero fields match everything.
type RunFilter struct {
	// Tenant, Key, Outcome, and Kind match the corresponding record
	// fields exactly when non-empty.
	Tenant, Key, Outcome, Kind string
	// Limit caps the number of returned records (newest first);
	// 0 means no cap beyond the ledger's own bound.
	Limit int
}

func (f RunFilter) matches(rec *RunRecord) bool {
	if f.Tenant != "" && rec.Tenant != f.Tenant {
		return false
	}
	if f.Key != "" && rec.Key != f.Key {
		return false
	}
	if f.Outcome != "" && rec.Outcome != f.Outcome {
		return false
	}
	if f.Kind != "" && rec.Kind != f.Kind {
		return false
	}
	return true
}

// LedgerStats snapshots a Ledger's occupancy.
type LedgerStats struct {
	// Appended counts every record ever appended.
	Appended uint64 `json:"appended"`
	// Retained is the number of records currently in the ring.
	Retained int `json:"retained"`
	// Capacity is the ring size.
	Capacity int `json:"capacity"`
	// Dropped counts tail-subscription deliveries discarded because a
	// subscriber's buffer was full.
	Dropped uint64 `json:"dropped"`
}

// DefaultLedgerCapacity is the ring size NewLedger applies when asked
// for a non-positive capacity.
const DefaultLedgerCapacity = 512

// Ledger is a bounded, concurrency-safe ring of RunRecords. Append
// assigns IDs and evicts oldest-first once the ring is full; Runs and
// Get serve queries; Subscribe feeds live tails without ever blocking
// appenders (slow subscribers drop records rather than stall runs).
type Ledger struct {
	mu      sync.Mutex
	ring    []RunRecord
	start   int // index of the oldest record
	count   int
	nextID  uint64
	dropped uint64
	nextSub int
	subs    map[int]chan RunRecord
}

// NewLedger returns a ledger retaining the last capacity records
// (DefaultLedgerCapacity when capacity <= 0).
func NewLedger(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultLedgerCapacity
	}
	return &Ledger{
		ring: make([]RunRecord, capacity),
		subs: make(map[int]chan RunRecord),
	}
}

// Append assigns the record's ID, stores it (evicting the oldest record
// when full), fans it out to subscribers, and returns the stored copy.
func (l *Ledger) Append(rec RunRecord) RunRecord {
	l.mu.Lock()
	l.nextID++
	rec.ID = l.nextID
	rec.Start = rec.Start.UTC()
	i := (l.start + l.count) % len(l.ring)
	if l.count == len(l.ring) {
		l.start = (l.start + 1) % len(l.ring)
	} else {
		l.count++
	}
	l.ring[i] = rec
	for _, ch := range l.subs {
		select {
		case ch <- rec:
		default:
			l.dropped++
		}
	}
	l.mu.Unlock()
	return rec
}

// Get returns the record with the given ID, or ok=false when it was
// never appended or has been evicted.
func (l *Ledger) Get(id uint64) (RunRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.count == 0 {
		return RunRecord{}, false
	}
	oldest := l.ring[l.start].ID
	if id < oldest || id > l.nextID {
		return RunRecord{}, false
	}
	// IDs are dense, so the offset from the oldest record locates it.
	i := (l.start + int(id-oldest)) % len(l.ring)
	return l.ring[i], true
}

// Runs returns records matching f, newest first.
func (l *Ledger) Runs(f RunFilter) []RunRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []RunRecord
	for k := l.count - 1; k >= 0; k-- {
		rec := l.ring[(l.start+k)%len(l.ring)]
		if !f.matches(&rec) {
			continue
		}
		out = append(out, rec)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Stats snapshots the ledger's occupancy.
func (l *Ledger) Stats() LedgerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerStats{
		Appended: l.nextID,
		Retained: l.count,
		Capacity: len(l.ring),
		Dropped:  l.dropped,
	}
}

// Subscribe registers a live feed of appended records with the given
// channel buffer (minimum 1). Appends never block on a subscriber: when
// the buffer is full the record is dropped for that subscriber (counted
// in Stats.Dropped). cancel unregisters and closes the channel; it is
// idempotent.
func (l *Ledger) Subscribe(buf int) (<-chan RunRecord, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan RunRecord, buf)
	l.mu.Lock()
	id := l.nextSub
	l.nextSub++
	l.subs[id] = ch
	l.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			l.mu.Lock()
			delete(l.subs, id)
			l.mu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}
