package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// sortedBucketNames returns the JSON latency_ms bucket labels, the bound
// buckets sorted by name and then "overflow".
func sortedBucketNames() []string {
	names := make([]string, 0, len(latencyBoundsMS)+1)
	for _, b := range latencyBoundsMS {
		names = append(names, fmt.Sprintf("le_%gms", b))
	}
	sort.Strings(names)
	return append(names, "overflow")
}

// promSamples parses a Prometheus exposition into sample values keyed by
// series ("name" or "name{labels}"), dropping exemplars.
func promSamples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		line, _, _ = strings.Cut(line, " # ")
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// quiescentViews reads the JSON and the Prometheus /metrics views with no
// request in between, so neither counts a scrape the other does not. The
// sched block reads the process-wide compute pool, which work left running
// by an earlier test in the process may still be using; the views are
// taken while the pool is idle and its counts stay put across both reads,
// and a pool that never settles fails the test as such rather than as a
// disagreement between the views.
func quiescentViews(t *testing.T, s *Server) (raw []byte, prom string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		before := sched.Default.Stats()
		if before.QueueDepth == 0 && before.InFlight == 0 {
			raw, err := json.Marshal(s.metricsSnapshot())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.obs.reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			if sched.Default.Stats() == before {
				return raw, buf.String()
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("compute pool not quiescent after a minute: %+v", sched.Default.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsViewsAgree drives one request of every kind the counters
// distinguish — a study miss, a coalesced follower, a shed 429, a hit, a
// study stream, a Monte Carlo stream and a batch — and then requires every
// count in the JSON /metrics document to equal its Prometheus sample.
func TestMetricsViewsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	s := newTestServer(t, func(c *Config) {
		c.MaxQueue = 1
		c.Sim.Instructions = 20_000
		c.DefaultInstructions = 20_000
	})
	release := make(chan struct{})
	var gated atomic.Bool
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		if gated.CompareAndSwap(false, true) {
			<-release // hold the first flight until a follower joins it
		}
		return sim.RunStudyContext(ctx, cfg, profiles, techs, opts)
	}

	const study = "/v1/study?apps=ammp&techs=130nm"
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, study, nil))
			codes <- rec.Code
		}()
	}
	deadline := time.Now().Add(time.Minute)
	for s.obs.coalesced.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request joined the held flight")
		}
		time.Sleep(time.Millisecond)
	}
	if rec, _ := get(t, s, "/v1/study?apps=gcc&techs=130nm"); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("study beyond the admission queue: status %d, want 429", rec.Code)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("held study status = %d", code)
		}
	}
	if rec, body := get(t, s, study); rec.Code != http.StatusOK || meta(t, body).Cache != "hit" {
		t.Fatalf("repeat study: status %d, want a 200 hit", rec.Code)
	}
	for _, target := range []string{
		"/v1/study/stream?apps=gzip&techs=130nm",
		"/v1/study/mc?apps=ammp&techs=130nm&samples=500&seed=3",
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status = %d", target, rec.Code)
		}
	}
	// The batch job re-evaluates study's cells under another mechanism
	// set, so it reuses their timing and thermal artifacts.
	var job BatchJobRequest
	job.Apps = []string{"ammp"}
	job.Techs = []string{"130nm"}
	job.Mechanisms = []string{"em", "sm", "tddb", "tc", "nbti"}
	waitBatchDone(t, s, submitBatch(t, s, []BatchJobRequest{job}, "").BatchID)

	raw, prom := quiescentViews(t, s)
	samples := promSamples(t, prom)

	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wantKeys := []string{"admission_capacity", "admission_queue_depth", "batches_total", "cache",
		"coalesced_total", "inflight_http", "jobs", "latency_ms", "ledger", "mc_replicas_total",
		"mc_studies_total", "requests_total", "runtime", "sched", "schema_version", "shed_total",
		"stage_cache", "status_total", "streams_total", "studies_total"}
	if fmt.Sprint(keys) != fmt.Sprint(wantKeys) {
		t.Errorf("JSON /metrics keys = %v, want %v", keys, wantKeys)
	}
	var m struct {
		Requests  map[string]float64            `json:"requests_total"`
		Status    map[string]float64            `json:"status_total"`
		Latency   map[string]float64            `json:"latency_ms"`
		Cache     map[string]float64            `json:"cache"`
		Sched     map[string]float64            `json:"sched"`
		Stage     map[string]map[string]float64 `json:"stage_cache"`
		Coalesced float64                       `json:"coalesced_total"`
		Shed      float64                       `json:"shed_total"`
		InFlight  float64                       `json:"inflight_http"`
		Studies   float64                       `json:"studies_total"`
		Streams   float64                       `json:"streams_total"`
		MCStudies float64                       `json:"mc_studies_total"`
		Replicas  float64                       `json:"mc_replicas_total"`
		Batches   float64                       `json:"batches_total"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}

	agree := func(what string, got float64, series string) {
		t.Helper()
		want, ok := samples[series]
		if !ok {
			t.Errorf("%s: no Prometheus sample %s", what, series)
		} else if got != want {
			t.Errorf("%s = %v, Prometheus %s = %v", what, got, series, want)
		}
	}
	// requests_total and status_total hold exactly the labelled series.
	for _, c := range []struct {
		json   map[string]float64
		family string
		label  string
	}{
		{m.Requests, "ramp_http_requests_total", "endpoint"},
		{m.Status, "ramp_http_responses_total", "code"},
	} {
		n := 0
		for series := range samples {
			if strings.HasPrefix(series, c.family+"{") {
				n++
			}
		}
		if n != len(c.json) {
			t.Errorf("%s has %d series, the JSON view %d", c.family, n, len(c.json))
		}
		for v, count := range c.json {
			agree(c.family+" "+v, count, fmt.Sprintf(`%s{%s="%s"}`, c.family, c.label, v))
		}
	}
	// latency_ms buckets are differences of the cumulative histogram.
	wantLatency := map[string]float64{}
	prev := 0.0
	for _, ms := range latencyBoundsMS {
		cum, ok := samples[fmt.Sprintf(`ramp_http_request_duration_seconds_bucket{le="%s"}`,
			strconv.FormatFloat(ms/1000, 'g', -1, 64))]
		if !ok {
			t.Fatalf("JSON latency bound %vms is not a Prometheus bucket bound", ms)
		}
		if cum > prev {
			wantLatency[fmt.Sprintf("le_%gms", ms)] = cum - prev
		}
		prev = cum
	}
	if n := samples["ramp_http_request_duration_seconds_count"] - prev; n > 0 {
		wantLatency["overflow"] = n
	}
	if fmt.Sprint(m.Latency) != fmt.Sprint(wantLatency) {
		t.Errorf("latency_ms = %v, histogram differences %v", m.Latency, wantLatency)
	}

	for _, c := range []struct {
		what   string
		got    float64
		series string
	}{
		{"coalesced_total", m.Coalesced, "ramp_coalesced_requests_total"},
		{"shed_total", m.Shed, "ramp_shed_requests_total"},
		{"inflight_http", m.InFlight, "ramp_http_inflight_requests"},
		{"studies_total", m.Studies, "ramp_studies_started_total"},
		{"streams_total", m.Streams, "ramp_streams_started_total"},
		{"mc_studies_total", m.MCStudies, "ramp_mc_studies_total"},
		{"mc_replicas_total", m.Replicas, "ramp_mc_replicas_total"},
		{"batches_total", m.Batches, "ramp_batches_submitted_total"},
		{"cache.entries", m.Cache["entries"], "ramp_result_cache_entries"},
		{"cache.hits", m.Cache["hits"], "ramp_result_cache_hits_total"},
		{"cache.misses", m.Cache["misses"], "ramp_result_cache_misses_total"},
		{"sched.queue_depth", m.Sched["queue_depth"], "ramp_sched_queue_depth"},
		{"sched.in_flight", m.Sched["in_flight"], "ramp_sched_inflight_tasks"},
		{"sched.completed", m.Sched["completed"], "ramp_sched_tasks_completed_total"},
		{"sched.failed", m.Sched["failed"], "ramp_sched_tasks_failed_total"},
	} {
		agree(c.what, c.got, c.series)
	}
	for _, stage := range []string{"timing", "thermal", "fit"} {
		st := m.Stage[stage]
		agree("stage_cache."+stage+".entries", st["entries"],
			fmt.Sprintf(`ramp_stage_cache_entries{stage="%s"}`, stage))
		for key, op := range map[string]string{
			"mem_hits":  `op="get",outcome="hit_mem"`,
			"disk_hits": `op="get",outcome="hit_disk"`,
			"misses":    `op="get",outcome="miss"`,
			"joined":    `op="get",outcome="joined"`,
			"puts":      `op="put",outcome="ok"`,
			"evicted":   `op="evict",outcome="ok"`,
		} {
			agree("stage_cache."+stage+"."+key, st[key],
				fmt.Sprintf(`ramp_stage_cache_ops_total{stage="%s",%s}`, stage, op))
		}
	}

	// The drive reached every counter it means to compare.
	for what, got := range map[string]float64{
		"coalesced_total": m.Coalesced, "shed_total": m.Shed, "status 429": m.Status["429"],
		"cache.hits": m.Cache["hits"], "streams_total": m.Streams, "mc_studies_total": m.MCStudies,
		"mc_replicas_total": m.Replicas, "batches_total": m.Batches, "sched.completed": m.Sched["completed"],
		"stage_cache.timing.puts": m.Stage["timing"]["puts"], "latency_ms": float64(len(m.Latency)),
		"stage_cache.thermal.mem_hits": m.Stage["thermal"]["mem_hits"],
	} {
		if got == 0 {
			t.Errorf("%s = 0 after the drive", what)
		}
	}
	if spans := s.obs.queueWait.With(sim.StageTiming).Count(); spans == 0 {
		t.Error("no slot span fed ramp_sched_queue_wait_seconds")
	}
}
