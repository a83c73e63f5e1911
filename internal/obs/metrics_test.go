package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ramp_things_total", "things")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := reg.Gauge("ramp_level", "level")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	// Re-registration returns the same instrument.
	if reg.Counter("ramp_things_total", "things") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ramp_x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	reg.Gauge("ramp_x_total", "")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ramp_dur_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	cum, sum, count := h.Snapshot()
	// 0.01 lands in the le=0.01 bucket (boundary inclusive).
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, cum[i], w, cum)
		}
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if math.Abs(sum-5.565) > 1e-9 {
		t.Fatalf("sum = %v, want 5.565", sum)
	}
	if q := h.Quantile(0.5); q < 0.01 || q > 0.1 {
		t.Fatalf("p50 = %v, want within (0.01, 0.1]", q)
	}
	if q := h.Quantile(0.99); q != 1 {
		// Rank 4.95 falls in the overflow bucket, whose estimate clamps to
		// the last finite bound.
		t.Fatalf("p99 = %v, want clamp to 1", q)
	}
	if empty := reg.Histogram("ramp_empty_seconds", "", nil).Quantile(0.9); empty != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", empty)
	}
}

// TestPrometheusExposition pins the text-format conventions promtool
// checks: HELP/TYPE pairs, sorted families, _total counters,
// _bucket/_sum/_count histogram triples with a trailing +Inf bucket, and
// escaped label values.
func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("ramp_requests_total", "requests per endpoint", "endpoint").With("/v1/study").Add(3)
	reg.Counter("ramp_shed_total", "shed requests").Inc()
	reg.Gauge("ramp_inflight", "in flight").Set(2)
	reg.GaugeFunc("ramp_queue_depth", "queue", nil, func() float64 { return 4 })
	reg.CounterFunc("ramp_cache_hits_total", "hits", []Label{{"stage", "fit"}}, func() float64 { return 9 })
	h := reg.HistogramVec("ramp_stage_duration_seconds", "stage latency", []float64{0.5, 1}, "stage")
	h.With("timing").Observe(0.25)
	h.With("timing").Observe(2)
	reg.CounterVec("ramp_escape_total", "odd labels", "v").With(`a"b\c` + "\n").Inc()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP ramp_requests_total requests per endpoint\n# TYPE ramp_requests_total counter\n" +
			`ramp_requests_total{endpoint="/v1/study"} 3`,
		"# TYPE ramp_shed_total counter\nramp_shed_total 1",
		"# TYPE ramp_inflight gauge\nramp_inflight 2",
		"ramp_queue_depth 4",
		`ramp_cache_hits_total{stage="fit"} 9`,
		`ramp_stage_duration_seconds_bucket{stage="timing",le="0.5"} 1`,
		`ramp_stage_duration_seconds_bucket{stage="timing",le="1"} 1`,
		`ramp_stage_duration_seconds_bucket{stage="timing",le="+Inf"} 2`,
		`ramp_stage_duration_seconds_sum{stage="timing"} 2.25`,
		`ramp_stage_duration_seconds_count{stage="timing"} 2`,
		`ramp_escape_total{v="a\"b\\c\n"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}

	// Families are sorted by name, and every sample line belongs to the
	// most recent HELP/TYPE family prefix (promtool's grouping rule).
	var families []string
	current := ""
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			current = strings.Fields(line)[2]
			families = append(families, current)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			if name := strings.Fields(line)[2]; name != current {
				t.Fatalf("TYPE %s outside its HELP family %s", name, current)
			}
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if base != current && name != current {
			t.Fatalf("sample %q outside family %q", line, current)
		}
	}
	if !sortStringsIsSorted(families) {
		t.Fatalf("families not sorted: %v", families)
	}
}

func sortStringsIsSorted(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestVecConcurrency(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("ramp_ops_total", "", "op")
	hist := reg.HistogramVec("ramp_lat_seconds", "", nil, "op")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ops := []string{"get", "put", "evict"}
			for i := 0; i < 500; i++ {
				op := ops[i%3]
				vec.With(op).Inc()
				hist.With(op).Observe(float64(i) / 1000)
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, op := range []string{"get", "put", "evict"} {
		total += vec.With(op).Value()
	}
	if total != 4000 {
		t.Fatalf("total = %d, want 4000", total)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `ramp_ops_total{op="evict"}`) {
		t.Fatalf("missing evict series:\n%s", b.String())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0.5:          "0.5",
		4:            "4",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}

// TestHistogramExemplarRendering pins the OpenMetrics exemplar suffix:
// ObserveExemplar attaches the traced observation to the containing
// bucket (last write wins), including the +Inf overflow bucket, and the
// exposition renders it as ` # {labels} value timestamp` without breaking
// any other line.
func TestHistogramExemplarRendering(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ramp_req_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05) // untraced: no exemplar on this bucket
	h.ObserveExemplar(0.5, Label{"trace_id", "aaaa"})
	h.ObserveExemplar(0.6, Label{"trace_id", "bbbb"}) // replaces aaaa
	h.ObserveExemplar(5, Label{"trace_id", "cccc"})   // +Inf bucket

	ex := h.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("exemplar slots = %d, want bounds+1 = 3", len(ex))
	}
	if ex[0] != nil {
		t.Errorf("untraced bucket grew an exemplar: %+v", ex[0])
	}
	if ex[1] == nil || ex[1].Labels[0].Value != "bbbb" || ex[1].Value != 0.6 {
		t.Errorf("bucket exemplar = %+v, want last-write bbbb @ 0.6", ex[1])
	}
	if ex[2] == nil || ex[2].Labels[0].Value != "cccc" {
		t.Errorf("+Inf exemplar = %+v, want cccc", ex[2])
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		switch {
		case strings.HasPrefix(line, `ramp_req_seconds_bucket{le="0.1"}`):
			if strings.Contains(line, " # ") {
				t.Errorf("untraced bucket rendered an exemplar: %q", line)
			}
		case strings.HasPrefix(line, `ramp_req_seconds_bucket{le="1"}`):
			if !strings.Contains(line, `# {trace_id="bbbb"} 0.6 `) {
				t.Errorf("bucket line lacks the exemplar: %q", line)
			}
		case strings.HasPrefix(line, `ramp_req_seconds_bucket{le="+Inf"}`):
			if !strings.Contains(line, `# {trace_id="cccc"} 5 `) {
				t.Errorf("+Inf line lacks the exemplar: %q", line)
			}
		}
	}
	// _sum and _count never carry exemplars.
	if strings.Contains(out, "_sum{") || strings.Contains(strings.Split(out, "_sum ")[1][:20], " # ") {
		t.Errorf("sum line corrupted:\n%s", out)
	}
}

// TestPrometheusEscaping is the table-driven audit of the text-format
// escaping rules: label values escape backslash, double-quote, and
// newline; HELP text escapes backslash and newline but NOT quotes (per
// the exposition-format spec, quotes are legal in HELP).
func TestPrometheusEscaping(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
		want string
	}{
		{"plain", "plain", "plain"},
		{"backslash", `a\b`, `a\\b`},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"newline", "two\nlines", `two\nlines`},
		{"all three", "\\\"\n", `\\\"\n`},
		{"windows path", `C:\temp\new`, `C:\\temp\\new`},
	} {
		if got := escapeLabel(tc.in); got != tc.want {
			t.Errorf("escapeLabel(%s): %q, want %q", tc.name, got, tc.want)
		}
	}
	for _, tc := range []struct {
		name string
		in   string
		want string
	}{
		{"plain", "latency seconds", "latency seconds"},
		{"backslash", `back\slash`, `back\\slash`},
		{"newline", "help\ntext", `help\ntext`},
		{"quote untouched", `a "quoted" help`, `a "quoted" help`},
	} {
		if got := escapeHelp(tc.in); got != tc.want {
			t.Errorf("escapeHelp(%s): %q, want %q", tc.name, got, tc.want)
		}
	}

	// End to end: a hostile label value and HELP survive a full exposition
	// as parseable single lines.
	reg := NewRegistry()
	reg.CounterVec("ramp_hostile_total", "help with \\ and\nnewline", "v").
		With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`# HELP ramp_hostile_total help with \\ and\nnewline` + "\n",
		`ramp_hostile_total{v="a\"b\\c\nd"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.ContainsRune(line, '\r') {
			t.Errorf("raw control byte leaked into line %q", line)
		}
	}
}

// TestVecWithAllocs: With on an existing series resolves it without
// rendering labels or allocating, for every Vec kind; distinct tuples
// whose values concatenate alike stay distinct series.
func TestVecWithAllocs(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.CounterVec("ramp_probe_total", "", "endpoint", "code")
	gauge := reg.GaugeVec("ramp_probe_gauge", "", "stage")
	hist := reg.HistogramVec("ramp_probe_seconds", "", nil, "stage")
	ctr.With("/v1/study", "200").Inc()
	gauge.With("timing").Set(1)
	hist.With("timing").Observe(0.01)
	if n := testing.AllocsPerRun(100, func() {
		ctr.With("/v1/study", "200").Inc()
		gauge.With("timing").Add(1)
		hist.With("timing").Observe(0.01)
	}); n != 0 {
		t.Fatalf("With on existing series allocates %v times per run; want 0", n)
	}
	ctr.With("ab", "c").Inc()
	ctr.With("a", "bc").Inc()
	if a, b := ctr.With("ab", "c"), ctr.With("a", "bc"); a == b || a.Value() != 1 || b.Value() != 1 {
		t.Fatalf("tuples (ab,c) and (a,bc) share a series")
	}
}
