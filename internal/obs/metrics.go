package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DurationBuckets are the default latency-histogram upper bounds in
// seconds, spanning sub-millisecond stage replays to multi-minute cold
// studies. p50/p90/p99 are derivable from any exposition scrape.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Registry is a process-local metrics registry with Prometheus text
// exposition. It supports counters, gauges, fixed-bucket histograms, and
// scrape-time bridges (CounterFunc/GaugeFunc) over pre-existing stat
// sources. All instruments are safe for concurrent use; registration
// methods are idempotent per (name, kind) and panic on a kind conflict,
// which — like expvar.Publish — indicates a programming error.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Label is one exposition label pair.
type Label struct {
	Name, Value string
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one exposition family: a name, a type, and its series.
type family struct {
	name, help string
	kind       metricKind
	labels     []string // label names for Vec-created series
	buckets    []float64

	mu     sync.Mutex
	series map[string]*series // keyed by rendered label string
	order  []string           // insertion order, sorted at exposition
}

// series is one labelled instrument within a family.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64 // scrape-time bridge (counter or gauge)
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat is a CAS-loop float64 accumulator.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Exemplar is one traced observation attached to a histogram bucket —
// typically a trace_id label pointing at the distributed trace of a
// request that landed in that bucket, rendered OpenMetrics-style in the
// exposition so a dashboard can jump from a latency spike to the exact
// trace that caused it.
type Exemplar struct {
	// Labels identify the traced observation (e.g. trace_id).
	Labels []Label
	// Value is the observed sample.
	Value float64
	// Ts is when the observation happened.
	Ts time.Time
}

// Histogram is a fixed-bucket histogram: per-bucket counters plus a total
// sum and count, rendered as the Prometheus _bucket/_sum/_count triple.
// Buckets may additionally carry the most recent traced observation as an
// OpenMetrics exemplar (see ObserveExemplar).
type Histogram struct {
	bounds    []float64
	counts    []atomic.Uint64 // len(bounds)+1; last is +Inf overflow
	exemplars []atomic.Pointer[Exemplar]
	sum       atomicFloat
	count     atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveExemplar records one sample and, when labels are given, replaces
// the containing bucket's exemplar with this observation (last write
// wins — recency is the useful property for "what just got slow").
func (h *Histogram) ObserveExemplar(v float64, labels ...Label) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if len(labels) > 0 {
		h.exemplars[i].Store(&Exemplar{Labels: labels, Value: v, Ts: time.Now()})
	}
}

// Exemplars returns the current per-bucket exemplars, aligned with
// Bounds() plus the +Inf bucket; entries are nil where no traced
// observation has landed.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Snapshot returns cumulative bucket counts aligned with Bounds()
// followed by the +Inf bucket, plus sum and count. The counts are read
// individually (each atomically); under concurrent observation the
// cumulative property still holds per read order.
func (h *Histogram) Snapshot() (cumulative []uint64, sum float64, count uint64) {
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return cumulative, h.sum.Value(), h.count.Load()
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Quantile returns an estimate of quantile q (0..1) by linear
// interpolation within the containing bucket — good enough for p50/p90/p99
// reporting without a client-side PromQL engine.
func (h *Histogram) Quantile(q float64) float64 {
	cum, _, count := h.Snapshot()
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	lower := 0.0
	for i, c := range cum {
		if float64(c) >= rank {
			upper := math.Inf(1)
			if i < len(h.bounds) {
				upper = h.bounds[i]
			}
			if math.IsInf(upper, 1) {
				return lower
			}
			prev := uint64(0)
			if i > 0 {
				prev = cum[i-1]
			}
			width := float64(c - prev)
			if width == 0 {
				return upper
			}
			return lower + (upper-lower)*(rank-float64(prev))/width
		}
		if i < len(h.bounds) {
			lower = h.bounds[i]
		}
	}
	return lower
}

// family registration -------------------------------------------------------

func (r *Registry) familyFor(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			labels: labels, buckets: buckets,
			series: make(map[string]*series),
		}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

func (f *family) seriesFor(labels []Label) *series {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: labels}
		switch f.kind {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = newHistogram(f.buckets)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.familyFor(name, help, kindCounter, nil, nil).seriesFor(nil).ctr
}

// Gauge registers (or returns) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.familyFor(name, help, kindGauge, nil, nil).seriesFor(nil).gauge
}

// Histogram registers (or returns) an unlabelled histogram with the given
// bucket upper bounds (nil = DurationBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DurationBuckets
	}
	return r.familyFor(name, help, kindHistogram, nil, buckets).seriesFor(nil).hist
}

// CounterFunc registers a scrape-time counter bridge: fn is read at every
// exposition and must be monotonically non-decreasing (it typically wraps
// an existing Stats snapshot).
func (r *Registry) CounterFunc(name, help string, labels []Label, fn func() float64) {
	f := r.familyFor(name, help, kindCounter, labelNames(labels), nil)
	s := f.seriesFor(labels)
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers a scrape-time gauge bridge.
func (r *Registry) GaugeFunc(name, help string, labels []Label, fn func() float64) {
	f := r.familyFor(name, help, kindGauge, labelNames(labels), nil)
	s := f.seriesFor(labels)
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// CounterVec is a counter family with a fixed label-name set.
type CounterVec struct {
	f      *family
	labels []string
}

// CounterVec registers (or returns) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.familyFor(name, help, kindCounter, labelNames, nil), labels: labelNames}
}

// With returns the counter for the given label values (one per label
// name, in order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.seriesFor(zipLabels(v.labels, values)).ctr
}

// Each calls fn with the label values and count of every counter With has
// created, in creation order.
func (v *CounterVec) Each(fn func(values []string, n uint64)) {
	v.f.mu.Lock()
	rows := make([]*series, len(v.f.order))
	for i, k := range v.f.order {
		rows[i] = v.f.series[k]
	}
	v.f.mu.Unlock()
	for _, s := range rows {
		values := make([]string, len(s.labels))
		for i, l := range s.labels {
			values[i] = l.Value
		}
		fn(values, s.ctr.Value())
	}
}

// GaugeVec is a gauge family with a fixed label-name set.
type GaugeVec struct {
	f      *family
	labels []string
}

// GaugeVec registers (or returns) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.familyFor(name, help, kindGauge, labelNames, nil), labels: labelNames}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.seriesFor(zipLabels(v.labels, values)).gauge
}

// HistogramVec is a histogram family with a fixed label-name set.
type HistogramVec struct {
	f      *family
	labels []string
}

// HistogramVec registers (or returns) a labelled histogram family
// (nil buckets = DurationBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DurationBuckets
	}
	return &HistogramVec{f: r.familyFor(name, help, kindHistogram, labelNames, buckets), labels: labelNames}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.seriesFor(zipLabels(v.labels, values)).hist
}

func zipLabels(names, values []string) []Label {
	if len(names) != len(values) {
		panic(fmt.Sprintf("obs: %d label values for %d label names", len(values), len(names)))
	}
	out := make([]Label, len(names))
	for i := range names {
		out[i] = Label{names[i], values[i]}
	}
	return out
}

func labelNames(labels []Label) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = l.Name
	}
	return out
}

// exposition ----------------------------------------------------------------

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, a # HELP / # TYPE pair
// per family, histograms as cumulative _bucket{le=...} series plus _sum
// and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, len(f.order))
	copy(keys, f.order)
	sort.Strings(keys)
	rows := make([]*series, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, f.series[k])
	}
	f.mu.Unlock()
	if len(rows) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range rows {
		ls := renderLabels(s.labels)
		switch {
		case s.fn != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, braced(ls), formatFloat(s.fn()))
		case s.ctr != nil:
			fmt.Fprintf(b, "%s%s %d\n", f.name, braced(ls), s.ctr.Value())
		case s.gauge != nil:
			fmt.Fprintf(b, "%s%s %d\n", f.name, braced(ls), s.gauge.Value())
		case s.hist != nil:
			cum, sum, count := s.hist.Snapshot()
			for i, bound := range s.hist.bounds {
				fmt.Fprintf(b, "%s_bucket%s %d%s\n", f.name,
					braced(joinLabels(ls, fmt.Sprintf(`le="%s"`, formatFloat(bound)))), cum[i],
					renderExemplar(s.hist.exemplars[i].Load()))
			}
			fmt.Fprintf(b, "%s_bucket%s %d%s\n", f.name,
				braced(joinLabels(ls, `le="+Inf"`)), cum[len(cum)-1],
				renderExemplar(s.hist.exemplars[len(cum)-1].Load()))
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, braced(ls), formatFloat(sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, braced(ls), count)
		}
	}
}

// renderExemplar renders an OpenMetrics exemplar suffix for a bucket
// line — ` # {trace_id="..."} value timestamp` — or "" when e is nil.
func renderExemplar(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {%s} %s %.3f", renderLabels(e.Labels), formatFloat(e.Value),
		float64(e.Ts.UnixMilli())/1000)
}

// renderLabels renders label pairs as `a="x",b="y"` (no braces).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf(`%s="%s"`, l.Name, escapeLabel(l.Value))
	}
	return strings.Join(parts, ",")
}

func joinLabels(existing, extra string) string {
	if existing == "" {
		return extra
	}
	return existing + "," + extra
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}
