// Package obs is the zero-dependency observability layer of the ramp
// stack: context-propagated spans (trace.go), a Prometheus-expositable
// metrics registry (metrics.go), Chrome trace-event export
// (chrometrace.go), and structured-logging / request-ID plumbing
// (log.go). Everything here is allocation-light by design — in particular
// the span API is a strict no-op costing zero allocations when no tracer
// is installed in the context, so the simulation hot path can stay
// instrumented unconditionally.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span names used across the stack. The "sim." spans wrap the three
// content-addressed pipeline stages; MetricsSink maps them onto the
// stage-latency histogram (label values "timing", "thermal", "fit").
const (
	// SpanStudy wraps one whole study execution.
	SpanStudy = "sim.study"
	// SpanCell wraps one (profile × technology) cell, whatever its
	// provenance; the "source" attribute records fit-cache / thermal-cache
	// / computed.
	SpanCell = "sim.cell"
	// SpanTiming wraps one profile's timing simulation. Its "cache"
	// attribute is hit, miss, or joined when the run waited on another
	// run's simulation of the same key; a joined span bills no stage work.
	SpanTiming = "sim.timing"
	// SpanThermal wraps one cell's power+thermal transient.
	SpanThermal = "sim.thermal"
	// SpanFIT wraps one cell's reliability accumulation.
	SpanFIT = "sim.fit"
	// SpanMC wraps one Monte Carlo lifetime study over a finished grid.
	SpanMC = "sim.mc"
	// SpanMCBatch wraps one replica batch of a Monte Carlo study ("cell"
	// and "replicas" attributes).
	SpanMCBatch = "sim.mc.batch"
	// SpanCacheGet wraps one stage-cache lookup ("stage" and "result"
	// attributes; result is hit, miss, or joined).
	SpanCacheGet = "store.get"
	// SpanCachePut wraps one stage-cache insert.
	SpanCachePut = "store.put"
	// SpanRequest wraps one HTTP request in rampd.
	SpanRequest = "server.request"
	// SpanSlot wraps one hold of a compute-pool slot (sched.Pool.Run):
	// "stage" labels the work and "wait_ns" is how long the caller waited
	// for the slot before the span began.
	SpanSlot = "sched.slot"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// SpanSink receives completed spans. SpanEnded is called synchronously
// from Span.End on whatever goroutine ended the span, so implementations
// must be safe for concurrent use and should return quickly. The span is
// immutable once delivered.
type SpanSink interface {
	SpanEnded(*Span)
}

// Tracer mints spans and hands them to its sink. A nil *Tracer is valid
// everywhere and disables tracing. Create with NewTracer; a Tracer is
// safe for concurrent use by any number of goroutines.
type Tracer struct {
	sink SpanSink
	now  func() time.Time
	ids  atomic.Uint64 // span IDs, unique per tracer
	tids atomic.Uint64 // track IDs, one per span tree root
}

// TracerOption configures NewTracer.
type TracerOption func(*Tracer)

// WithClock overrides the tracer's time source (tests, deterministic
// trace rendering).
func WithClock(now func() time.Time) TracerOption {
	return func(t *Tracer) { t.now = now }
}

// NewTracer returns a tracer delivering completed spans to sink. A nil
// sink yields a tracer that still times spans (useful for tests) but
// delivers nothing.
func NewTracer(sink SpanSink, opts ...TracerOption) *Tracer {
	t := &Tracer{sink: sink, now: time.Now}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Sink returns the tracer's sink (nil for a nil or sink-less tracer), so
// callers can compose it into a MultiSink with additional per-run sinks.
func (t *Tracer) Sink() SpanSink {
	if t == nil {
		return nil
	}
	return t.sink
}

// Span is one timed operation. Spans are created by StartSpan, annotated
// with SetAttr by the single goroutine that owns them, and completed with
// Finish, after which they are immutable. A nil *Span is valid and turns
// every method into a no-op — the uninstrumented fast path.
type Span struct {
	tracer *Tracer
	// Name is the span's operation name (one of the Span* constants).
	Name string
	// ID and Parent identify the span within its tracer; Parent is 0 for
	// roots.
	ID, Parent uint64
	// Track groups a root span and its descendants onto one timeline row
	// (the Chrome trace "tid").
	Track uint64
	// Start and End bound the operation.
	Start, End time.Time

	attrs   []Attr
	attrBuf [4]Attr
}

type (
	tracerKey struct{}
	spanKey   struct{}
)

// WithTracer installs t in the context; a nil t returns ctx unchanged so
// callers can thread an optional tracer without branching.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the tracer installed in ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// StartSpan begins a span named name under the current span of ctx (or as
// a new root when there is none), returning a derived context carrying it.
// When no tracer is installed the call is free: it returns ctx unchanged
// and a nil span, with zero allocations — the property the nil-tracer
// benchmark pins down.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var t *Tracer
	if parent != nil {
		t = parent.tracer
	} else if t = TracerFrom(ctx); t == nil {
		return ctx, nil
	}
	sp := &Span{
		tracer: t,
		Name:   name,
		ID:     t.ids.Add(1),
		Start:  t.now(),
	}
	if parent != nil {
		sp.Parent = parent.ID
		sp.Track = parent.Track
	} else {
		sp.Track = t.tids.Add(1)
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartTrackSpan is StartSpan on a fresh timeline track: the span keeps
// its parent link but starts a new Chrome-trace row, as do its
// descendants. Concurrent subtrees (one per study cell, say) use it so
// overlapping siblings don't render stacked on the parent's row.
func StartTrackSpan(ctx context.Context, name string) (context.Context, *Span) {
	ctx, sp := StartSpan(ctx, name)
	if sp != nil {
		sp.Track = sp.tracer.tids.Add(1)
	}
	return ctx, sp
}

// SpanFrom returns the current span of ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// SetAttr annotates the span; a no-op on a nil span. Attrs set after
// Finish are not delivered.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = s.attrBuf[:0]
	}
	s.attrs = append(s.attrs, Attr{key, value})
}

// Attrs returns the span's annotations in insertion order. The returned
// slice is owned by the span; do not mutate it.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// joined reports whether a stage span waited on another run's computation
// of its artifact ("cache" attribute "joined"). That run bills the work,
// so the run ledger and the stage-latency histogram skip the joiner.
func joined(sp *Span) bool {
	for _, a := range sp.Attrs() {
		if a.Key == "cache" {
			return a.Value == "joined"
		}
	}
	return false
}

// Duration returns End-Start (zero before End).
func (s *Span) Duration() time.Duration {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Finish stamps the end time and delivers the span to the tracer's sink.
// A no-op on a nil span. Finish must be called exactly once, by the
// goroutine that owns the span; the span is immutable afterwards.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.End = s.tracer.now()
	if s.tracer.sink != nil {
		s.tracer.sink.SpanEnded(s)
	}
}

// MultiSink fans completed spans out to every non-nil sink. It returns
// nil when no usable sink remains, a single sink unwrapped, or a fan-out.
func MultiSink(sinks ...SpanSink) SpanSink {
	var live []SpanSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []SpanSink

func (m multiSink) SpanEnded(sp *Span) {
	for _, s := range m {
		s.SpanEnded(sp)
	}
}

// Collector is a SpanSink that retains every completed span in completion
// order, bounded by max (0 = unbounded). It backs both rampsim's
// -trace-out file and rampd's per-study trace retention.
type Collector struct {
	mu      sync.Mutex
	max     int
	spans   []*Span
	dropped int64
}

// NewCollector returns a collector retaining at most max spans
// (0 = unbounded).
func NewCollector(max int) *Collector {
	return &Collector{max: max}
}

// SpanEnded implements SpanSink.
func (c *Collector) SpanEnded(sp *Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && len(c.spans) >= c.max {
		c.dropped++
		return
	}
	c.spans = append(c.spans, sp)
}

// Spans returns a snapshot of the collected spans in completion order.
func (c *Collector) Spans() []*Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// Dropped reports how many spans were discarded by the bound.
func (c *Collector) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// MetricsSink bridges spans into the metrics registry: each completed
// pipeline-stage span (sim.timing / sim.thermal / sim.fit) is observed in
// a stage-latency histogram, so one instrumentation feeds both the trace
// export and the Prometheus exposition.
type MetricsSink struct {
	hist *HistogramVec
}

// NewMetricsSink observes pipeline-stage span durations into hist, which
// must have exactly one label (the stage).
func NewMetricsSink(hist *HistogramVec) *MetricsSink {
	return &MetricsSink{hist: hist}
}

// SpanEnded implements SpanSink.
func (m *MetricsSink) SpanEnded(sp *Span) {
	var stage string
	switch sp.Name {
	case SpanTiming:
		if joined(sp) {
			return
		}
		stage = "timing"
	case SpanThermal:
		stage = "thermal"
	case SpanFIT:
		stage = "fit"
	default:
		return
	}
	m.hist.With(stage).Observe(sp.End.Sub(sp.Start).Seconds())
}
