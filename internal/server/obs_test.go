package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// TestRequestIDAssignment pins the request-ID middleware: a sane inbound
// X-Request-ID is echoed, a hostile one is replaced, and every response
// carries an ID regardless.
func TestRequestIDAssignment(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct {
		inbound string
		echoed  bool
	}{
		{"", false},
		{"client-id-42", true},
		{"evil\"injection\n", false},
		{strings.Repeat("a", 200), false},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		if tc.inbound != "" {
			req.Header.Set("X-Request-ID", tc.inbound)
		}
		s.Handler().ServeHTTP(rec, req)
		got := rec.Header().Get("X-Request-ID")
		if got == "" {
			t.Fatalf("inbound %q: no response request ID", tc.inbound)
		}
		if tc.echoed && got != tc.inbound {
			t.Errorf("inbound %q not echoed (got %q)", tc.inbound, got)
		}
		if !tc.echoed && got == tc.inbound {
			t.Errorf("hostile inbound %q echoed verbatim", tc.inbound)
		}
	}
}

// TestErrorEnvelopeCarriesRequestID: error responses must echo the request
// ID so clients can quote it when reporting failures.
func TestErrorEnvelopeCarriesRequestID(t *testing.T) {
	s := newTestServer(t, nil)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/study?apps=not-a-benchmark", nil)
	req.Header.Set("X-Request-ID", "correlate-me")
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID != "correlate-me" {
		t.Fatalf("error envelope request_id = %q, want correlate-me", er.RequestID)
	}
}

// TestRequestLogging checks the structured access log: one JSON record per
// request with the request ID, endpoint, status, and duration.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedBuf{&mu, &buf}, nil))
	s := newTestServer(t, func(c *Config) { c.Logger = logger })

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-ID", "log-probe")
	s.Handler().ServeHTTP(rec, req)

	mu.Lock()
	defer mu.Unlock()
	var recLine map[string]any
	if err := json.Unmarshal(buf.Bytes(), &recLine); err != nil {
		t.Fatalf("access log is not one JSON record: %v (%q)", err, buf.String())
	}
	if recLine["msg"] != "request" || recLine["request_id"] != "log-probe" ||
		recLine["endpoint"] != "/healthz" || recLine["status"] != float64(200) {
		t.Fatalf("access log record = %v", recLine)
	}
	if _, ok := recLine["duration_ms"].(float64); !ok {
		t.Fatalf("access log missing duration_ms: %v", recLine)
	}
}

// lockedBuf guards a bytes.Buffer for concurrent log writes.
type lockedBuf struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (l lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// promLine matches a Prometheus text-format sample line, optionally
// carrying an OpenMetrics exemplar suffix on histogram bucket lines
// (` # {trace_id="…"} <value> <unix-seconds>`).
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)( # \{[^{}]*\} -?[0-9.eE+-]+ [0-9]+\.[0-9]+)?$`)

// scrapeProm fetches /metrics?format=prometheus and returns the body.
func scrapeProm(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("prometheus scrape status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type = %q", ct)
	}
	return rec.Body.String()
}

// TestPrometheusExpositionFormat validates the exposition's syntax and
// naming conventions on a stub-driven server: every sample line parses,
// every family has HELP and TYPE, counters end in _total, and histograms
// render the full _bucket/_sum/_count triple with a +Inf bucket.
func TestPrometheusExpositionFormat(t *testing.T) {
	s := newTestServer(t, nil)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return stubResult(cfg, techs), nil
	}
	if rec, _ := get(t, s, "/v1/study?apps=ammp&techs=130nm"); rec.Code != http.StatusOK {
		t.Fatalf("study status = %d", rec.Code)
	}

	body := scrapeProm(t, s)
	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("bad comment line %q", line)
			}
			if parts[1] == "TYPE" {
				typed[parts[2]] = parts[3]
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable sample line %q", line)
		}
	}
	for fam, kind := range typed {
		switch kind {
		case "counter":
			if !strings.HasSuffix(fam, "_total") {
				t.Errorf("counter %s lacks _total suffix", fam)
			}
		case "histogram":
			if !strings.HasSuffix(fam, "_seconds") {
				t.Errorf("duration histogram %s lacks _seconds suffix", fam)
			}
			for _, piece := range []string{
				fam + `_bucket{le="+Inf"}`, fam + "_sum", fam + "_count",
			} {
				if !strings.Contains(body, piece) {
					t.Errorf("histogram %s missing %s", fam, piece)
				}
			}
		}
	}
	for _, fam := range []string{
		"ramp_http_requests_total", "ramp_http_responses_total",
		"ramp_http_request_duration_seconds", "ramp_http_inflight_requests",
		"ramp_studies_started_total", "ramp_sched_queue_depth",
		"ramp_result_cache_entries", "ramp_stage_cache_entries",
	} {
		if typed[fam] == "" {
			t.Errorf("family %s not exposed (TYPE lines: %v)", fam, typed)
		}
	}
	if !strings.Contains(body, `ramp_http_requests_total{endpoint="/v1/study"} 1`) {
		t.Errorf("request counter sample missing:\n%s", body)
	}
}

// TestPrometheusStageMetricsFromRealStudy drives one real (tiny) study and
// requires the pipeline-stage histogram to expose exactly the
// timing|thermal|fit label values, and the stage-cache op counters to
// carry stage/op/outcome labels.
func TestPrometheusStageMetricsFromRealStudy(t *testing.T) {
	s := newTestServer(t, nil)
	if rec, _ := get(t, s, "/v1/study?apps=ammp&techs=130nm"); rec.Code != http.StatusOK {
		t.Fatalf("study status = %d", rec.Code)
	}
	body := scrapeProm(t, s)
	for _, stage := range []string{"timing", "thermal", "fit"} {
		if !strings.Contains(body, `ramp_stage_duration_seconds_count{stage="`+stage+`"}`) {
			t.Errorf("no stage latency series for %s:\n%s", stage, body)
		}
		if !strings.Contains(body, `ramp_stage_cache_ops_total{stage="`+stage+`",op="put",outcome="ok"}`) {
			t.Errorf("no cache put counter for %s", stage)
		}
	}
	for _, schedStage := range []string{sim.StageTiming, sim.StageBase, sim.StageWorst} {
		if !strings.Contains(body, `ramp_sched_task_duration_seconds_count{stage="`+schedStage+`"}`) {
			t.Errorf("no sched task latency series for stage %s", schedStage)
		}
		if !strings.Contains(body, `ramp_sched_queue_wait_seconds_count{stage="`+schedStage+`"}`) {
			t.Errorf("no sched queue-wait series for stage %s", schedStage)
		}
	}
}

// TestStudyTraceEndpoint covers /v1/study/trace: 404 before any study,
// then a Perfetto-loadable trace with per-cell spans and cache attributes,
// selection by key, and the list view.
func TestStudyTraceEndpoint(t *testing.T) {
	s := newTestServer(t, nil)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/study/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("empty-ring status = %d, want 404", rec.Code)
	}

	okRec, body := get(t, s, "/v1/study?apps=ammp&techs=130nm")
	if okRec.Code != http.StatusOK {
		t.Fatalf("study status = %d", okRec.Code)
	}
	m := meta(t, body)

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/study/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trace status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Study-Key"); got != m.Key {
		t.Fatalf("X-Study-Key = %q, want %q", got, m.Key)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	cells, cacheGets := 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event ph = %q", ev.Ph)
		}
		switch ev.Name {
		case "sim.cell":
			cells++
			if ev.Args["source"] == "" || ev.Args["app"] == "" || ev.Args["tech"] == "" {
				t.Errorf("cell span missing identity attrs: %v", ev.Args)
			}
		case "store.get":
			cacheGets++
			if r := ev.Args["result"]; r != "hit" && r != "miss" {
				t.Errorf("cache get span result = %q", r)
			}
		}
	}
	if cells != 2 { // base + 130nm for one app
		t.Errorf("cell spans = %d, want 2", cells)
	}
	if cacheGets == 0 {
		t.Error("no cache lookup spans in trace")
	}

	// Selection by key, and a miss for an unknown key.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/v1/study/trace?key="+m.Key, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trace by key status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec,
		httptest.NewRequest(http.MethodGet, "/v1/study/trace?key=nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown key status = %d, want 404", rec.Code)
	}

	// List view.
	_, listBody := get(t, s, "/v1/study/trace?list=1")
	var traces []struct {
		Key       string `json:"key"`
		RequestID string `json:"request_id"`
		Spans     int    `json:"spans"`
	}
	if err := json.Unmarshal(listBody["traces"], &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Key != m.Key || traces[0].Spans == 0 ||
		traces[0].RequestID == "" {
		t.Fatalf("trace list = %+v", traces)
	}
}

// TestStreamMetaCarriesRequestID: the stream's first event must echo the
// request ID so NDJSON consumers can correlate with server logs.
func TestStreamMetaCarriesRequestID(t *testing.T) {
	s := newTestServer(t, nil)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		return stubResult(cfg, techs), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/study/stream?apps=ammp&techs=130nm", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "stream-probe")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metaEv struct {
		Event     string `json:"event"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metaEv); err != nil {
		t.Fatal(err)
	}
	if metaEv.Event != "meta" || metaEv.RequestID != "stream-probe" {
		t.Fatalf("meta event = %+v", metaEv)
	}
}

// TestMetricsConsistentUnderStreamingLoad is the snapshot-consistency
// regression test: both /metrics formats are hammered while a streaming
// study emits cells, with the race detector watching every counter path
// (pool counts, registry instruments, store counts, span sinks).
func TestMetricsConsistentUnderStreamingLoad(t *testing.T) {
	s := newTestServer(t, nil)
	release := make(chan struct{})
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		total := len(profiles) * len(techs)
		for i := 0; i < total; i++ {
			opts.OnApp(sim.AppEvent{
				Run:       sim.AppRun{App: profiles[0].Name, Tech: techs[0]},
				Source:    sim.CellComputed,
				CellsDone: i + 1, CellsTotal: total,
			})
		}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubResult(cfg, techs), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		resp, sc := openStream(t, ts, "/v1/study/stream?apps=ammp,gzip&techs=130nm")
		defer resp.Body.Close()
		for sc.Scan() {
		}
	}()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			target := "/metrics"
			if g%2 == 1 {
				target = "/metrics?format=prometheus"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("%s status = %d", target, rec.Code)
					return
				}
			}
		}(g)
	}
	close(release)
	<-streamDone
	close(stop)
	wg.Wait()

	// The JSON snapshot must still be coherent after the churn.
	_, body := get(t, s, "/metrics")
	var schedSnap map[string]int64
	if err := json.Unmarshal(body["sched"], &schedSnap); err != nil {
		t.Fatal(err)
	}
	if schedSnap["queue_depth"] < 0 || schedSnap["in_flight"] < 0 {
		t.Fatalf("negative sched gauges: %v", schedSnap)
	}
}

// TestMetricsUnknownFormatRejected pins the format negotiation.
func TestMetricsUnknownFormatRejected(t *testing.T) {
	s := newTestServer(t, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=xml", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
}
