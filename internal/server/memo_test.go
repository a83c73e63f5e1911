package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// holdUntilCoalesced blocks a stubbed computation until want requests
// have joined it, or until a deadline, so a server that fails to coalesce
// finishes (and fails the test) instead of hanging.
func holdUntilCoalesced(s *Server, want int64) {
	deadline := time.Now().Add(3 * time.Second)
	for s.metrics.Coalesced.Value() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// compactJSON strips insignificant whitespace, so documents written by the
// indented JSON endpoints and the compact NDJSON streams compare bytewise.
func compactJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("bad JSON %q: %v", raw, err)
	}
	return buf.Bytes()
}

// TestConcurrentCrossEndpointCoalesce requests one study key at once
// through /v1/study, /v1/study/stream and a one-job batch: the memo runs
// the simulation once, the other two requests join it, and all three
// answers carry the same study document.
func TestConcurrentCrossEndpointCoalesce(t *testing.T) {
	s := newTestServer(t, nil)
	var calls atomic.Int64
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		calls.Add(1)
		holdUntilCoalesced(s, 2)
		res := stubResult(cfg, techs)
		for _, p := range profiles {
			for _, tech := range techs {
				res.Apps = append(res.Apps, sim.AppRun{App: p.Name, Suite: p.Suite, Tech: tech})
			}
		}
		return res, nil
	}

	var wg sync.WaitGroup
	docs := make([][]byte, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		rec, body := get(t, s, "/v1/study?apps=ammp&techs=130nm")
		if rec.Code != http.StatusOK {
			t.Errorf("study status = %d: %s", rec.Code, rec.Body.String())
			return
		}
		docs[0] = compactJSON(t, body["study"])
	}()
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			"/v1/study/stream?apps=ammp&techs=130nm", nil))
		sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			if ev := decodeEvent(t, sc.Bytes()); ev.Event == "study" {
				docs[1] = compactJSON(t, ev.Study)
			}
		}
	}()
	go func() {
		defer wg.Done()
		var job BatchJobRequest
		job.Apps = []string{"ammp"}
		job.Techs = []string{"130nm"}
		resp := submitBatch(t, s, []BatchJobRequest{job}, "")
		waitBatchDone(t, s, resp.BatchID)
		rec, body := get(t, s, "/v1/batch/"+resp.BatchID+"/jobs/"+resp.JobIDs[0])
		if rec.Code != http.StatusOK {
			t.Errorf("job result status = %d: %s", rec.Code, rec.Body.String())
			return
		}
		docs[2] = compactJSON(t, body["study"])
	}()
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("simulations run = %d, want 1", got)
	}
	if got := s.metrics.Coalesced.Value(); got != 2 {
		t.Errorf("coalesced = %d, want 2", got)
	}
	for i, name := range []string{"/v1/study", "stream", "batch job"} {
		if docs[i] == nil {
			t.Fatalf("%s returned no study document", name)
		}
		if !bytes.Equal(docs[i], docs[0]) {
			t.Errorf("%s study document differs from /v1/study's", name)
		}
	}
}

// TestConcurrentIdenticalMCStreamsCoalesce: two identical concurrent
// /v1/study/mc streams share one sampling run — the replica counter moves
// by one run's replicas — and the follower replays the same result.
func TestConcurrentIdenticalMCStreamsCoalesce(t *testing.T) {
	s := newTestServer(t, nil)
	stub := mcStubRunStudy(nil)
	s.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		holdUntilCoalesced(s, 1)
		return stub(ctx, cfg, profiles, techs, opts)
	}
	const target = "/v1/study/mc?apps=ammp&techs=130nm&samples=500&seed=3"

	var wg sync.WaitGroup
	finals := make([]mcStreamEvent, 2)
	for i := range finals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, events, _ := runMC(t, s, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: status = %d: %s", i, rec.Code, rec.Body.String())
				return
			}
			finals[i] = finalMC(t, events)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// One run: 2 cells (180nm anchor + 130nm) × 500 samples.
	if got := s.metrics.MCReplicas.Value(); got != 1000 {
		t.Errorf("MC replicas drawn = %d, want one run's 1000", got)
	}
	if !bytes.Equal(finals[0].MC, finals[1].MC) {
		t.Error("the two streams' MC payloads differ")
	}
	if finals[0].Meta.Coalesced == finals[1].Meta.Coalesced {
		t.Errorf("coalesced flags = %v/%v, want one leader and one follower",
			finals[0].Meta.Coalesced, finals[1].Meta.Coalesced)
	}
	if st := s.cache.Stats(); st.Hits+st.Misses != 2 {
		t.Errorf("lookups = %d, want one per request", st.Hits+st.Misses)
	}
	seen := map[string]int{}
	for _, rec := range s.ledger.Runs(obs.RunFilter{Kind: "mc"}) {
		seen[rec.ResultCache]++
	}
	if seen[obs.ResultMiss] != 1 || seen[obs.ResultCoalesced] != 1 || len(seen) != 2 {
		t.Errorf("mc run records by result_cache = %v, want one miss and one coalesced", seen)
	}
}
