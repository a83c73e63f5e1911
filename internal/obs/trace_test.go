package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// testClock is a deterministic clock advancing a fixed step per call.
type testClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newTestClock(step time.Duration) *testClock {
	return &testClock{t: time.Unix(1000, 0).UTC(), step: step}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.t
	c.t = c.t.Add(c.step)
	return t
}

func TestSpanHierarchyAndTracks(t *testing.T) {
	col := NewCollector(0)
	tr := NewTracer(col, WithClock(newTestClock(time.Millisecond).Now))
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := StartSpan(ctx, SpanCell)
	root.SetAttr("app", "gzip")
	_, child := StartSpan(ctx1, SpanThermal)
	child.Finish()
	root.Finish()

	// A second root gets its own track.
	_, root2 := StartSpan(ctx, SpanCell)
	root2.Finish()

	spans := col.Spans()
	if len(spans) != 3 {
		t.Fatalf("collected %d spans, want 3", len(spans))
	}
	if spans[0].Name != SpanThermal || spans[1].Name != SpanCell {
		t.Fatalf("completion order = %s, %s; want child first", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent = %d, want root ID %d", spans[0].Parent, spans[1].ID)
	}
	if spans[0].Track != spans[1].Track {
		t.Fatalf("child track %d != root track %d", spans[0].Track, spans[1].Track)
	}
	if spans[2].Track == spans[1].Track {
		t.Fatalf("second root shares track %d with first", spans[2].Track)
	}
	if got := spans[1].Attrs(); len(got) != 1 || got[0] != (Attr{"app", "gzip"}) {
		t.Fatalf("root attrs = %v", got)
	}
	if d := spans[0].Duration(); d != time.Millisecond {
		t.Fatalf("child duration = %v, want 1ms", d)
	}
}

func TestNilTracerFastPath(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, SpanTiming)
	if sp != nil {
		t.Fatal("expected nil span without a tracer")
	}
	if ctx2 != ctx {
		t.Fatal("expected unchanged context without a tracer")
	}
	// All methods are no-ops on nil.
	sp.SetAttr("k", "v")
	sp.Finish()
	if sp.Attrs() != nil || sp.Duration() != 0 {
		t.Fatal("nil span leaked state")
	}
	if WithTracer(ctx, nil) != ctx {
		t.Fatal("WithTracer(nil) must return ctx unchanged")
	}
}

// TestNilTracerZeroAllocs is the hard gate on the uninstrumented hot
// path: starting and finishing a span with no tracer installed must not
// allocate. CI runs this test (and the benchmark below) on every push.
func TestNilTracerZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(ctx, SpanThermal)
		sp.SetAttr("stage", "thermal")
		sp.Finish()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer span start/finish allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestNilTracerZeroAllocsNested covers the deeper-context case: the span
// lookup walks parent contexts but still must not allocate.
func TestNilTracerZeroAllocsNested(t *testing.T) {
	type k struct{}
	ctx := context.WithValue(context.WithValue(context.Background(), k{}, 1), requestIDKey{}, "abc")
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, SpanFIT)
		sp.Finish()
	})
	if allocs != 0 {
		t.Fatalf("nested nil-tracer span allocated %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkSpanStartFinishNilTracer(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, SpanThermal)
		sp.SetAttr("stage", "thermal")
		sp.Finish()
	}
}

func BenchmarkSpanStartFinishActiveTracer(b *testing.B) {
	tr := NewTracer(nil)
	ctx := WithTracer(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, SpanThermal)
		sp.SetAttr("stage", "thermal")
		sp.Finish()
	}
}

func TestCollectorBound(t *testing.T) {
	col := NewCollector(2)
	tr := NewTracer(col)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := StartSpan(ctx, SpanCell)
		sp.Finish()
	}
	if n := len(col.Spans()); n != 2 {
		t.Fatalf("bounded collector kept %d spans, want 2", n)
	}
	if d := col.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewCollector(0), NewCollector(0)
	if MultiSink(nil, nil) != nil {
		t.Fatal("MultiSink of nils must be nil")
	}
	if MultiSink(a) != SpanSink(a) {
		t.Fatal("single sink must be returned unwrapped")
	}
	tr := NewTracer(MultiSink(a, nil, b))
	_, sp := StartSpan(WithTracer(context.Background(), tr), SpanStudy)
	sp.Finish()
	if len(a.Spans()) != 1 || len(b.Spans()) != 1 {
		t.Fatalf("fan-out delivered %d/%d, want 1/1", len(a.Spans()), len(b.Spans()))
	}
}

func TestMetricsSinkObservesStageSpans(t *testing.T) {
	reg := NewRegistry()
	hist := reg.HistogramVec("ramp_stage_duration_seconds", "per-stage latency", nil, "stage")
	sink := NewMetricsSink(hist)
	tr := NewTracer(sink, WithClock(newTestClock(10*time.Millisecond).Now))
	ctx := WithTracer(context.Background(), tr)

	for _, name := range []string{SpanTiming, SpanThermal, SpanFIT, SpanCell, SpanStudy} {
		_, sp := StartSpan(ctx, name)
		sp.Finish()
	}
	// A timing span that joined another run's simulation is not a stage run.
	_, sp := StartSpan(ctx, SpanTiming)
	sp.SetAttr("cache", "joined")
	sp.Finish()
	for _, stage := range []string{"timing", "thermal", "fit"} {
		if n := hist.With(stage).Count(); n != 1 {
			t.Fatalf("stage %s observed %d times, want 1", stage, n)
		}
	}
	// Non-stage spans must not land in any stage bucket.
	total := hist.With("timing").Count() + hist.With("thermal").Count() + hist.With("fit").Count()
	if total != 3 {
		t.Fatalf("total stage observations = %d, want 3", total)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	col := NewCollector(0)
	tr := NewTracer(col)
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c, sp := StartSpan(ctx, SpanCell)
				_, child := StartSpan(c, SpanFIT)
				child.Finish()
				sp.Finish()
			}
		}()
	}
	wg.Wait()
	spans := col.Spans()
	if len(spans) != 1600 {
		t.Fatalf("collected %d spans, want 1600", len(spans))
	}
	seen := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		if seen[sp.ID] {
			t.Fatalf("duplicate span ID %d", sp.ID)
		}
		seen[sp.ID] = true
	}
}
