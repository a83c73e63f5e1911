package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ramp-sim/ramp/internal/report"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// The old encoders: every JSON endpoint encoded its whole response value
// with json.Encoder and two-space indentation, and every stream event with
// a plain json.Encoder, re-building the study document on each request.
// The memo now holds each study's compact document, encoded once; these
// tests hold the served bytes to what the old encoders wrote.

func oldIndented(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func oldStreamLine(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// oldStreamStudyEvent is the closing stream event as the value the old
// stream writer encoded.
type oldStreamStudyEvent struct {
	Event string          `json:"event"`
	Meta  StudyMeta       `json:"meta"`
	Study report.Document `json:"study"`
}

// wireServer is a server running real (small) studies that records each
// result by study key and can hold a flight until a follower joins it.
type wireServer struct {
	*Server
	mu      sync.Mutex
	results map[string]*sim.StudyResult
	hold    atomic.Int64 // coalesced count a computation waits for; 0 = none
}

func newWireServer(t *testing.T) *wireServer {
	ws := &wireServer{Server: newTestServer(t, nil), results: map[string]*sim.StudyResult{}}
	ws.runStudy = func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error) {
		if want := ws.hold.Load(); want > 0 {
			holdUntilCoalesced(ws.Server, want)
		}
		res, err := sim.RunStudyContext(ctx, cfg, profiles, techs, opts)
		if err != nil {
			return nil, err
		}
		key, err := sim.StudyKey(cfg, profiles, techs)
		if err != nil {
			return nil, err
		}
		ws.mu.Lock()
		ws.results[key] = res
		ws.mu.Unlock()
		return res, nil
	}
	return ws
}

func (ws *wireServer) result(t *testing.T, key string) *sim.StudyResult {
	t.Helper()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	res, ok := ws.results[key]
	if !ok {
		t.Fatalf("no study ran under key %s", key)
	}
	return res
}

// serve answers one request through the handler.
func (ws *wireServer) serve(method, target string, body any) *httptest.ResponseRecorder {
	var req *http.Request
	if body != nil {
		raw, _ := json.Marshal(body)
		req = httptest.NewRequest(method, target, bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	ws.Handler().ServeHTTP(rec, req)
	return rec
}

// missFollowerHit serves do twice concurrently — the first computation
// held until the second has joined it — and then once more from the
// memo, returning the leader's, the follower's and the hit's responses.
func (ws *wireServer) missFollowerHit(t *testing.T, do func() *httptest.ResponseRecorder) [3]*httptest.ResponseRecorder {
	t.Helper()
	before := ws.metrics.Coalesced.Value()
	ws.hold.Store(before + 1)
	var pair [2]*httptest.ResponseRecorder
	var wg sync.WaitGroup
	for i := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pair[i] = do()
		}()
	}
	wg.Wait()
	ws.hold.Store(0)
	if got := ws.metrics.Coalesced.Value(); got != before+1 {
		t.Fatalf("coalesced %d requests, want 1", got-before)
	}
	hit := do()
	// Order the pair as leader, follower by their reported meta.
	if strings.Contains(pair[0].Body.String(), `"coalesced": true`) ||
		strings.Contains(pair[0].Body.String(), `"coalesced":true`) {
		pair[0], pair[1] = pair[1], pair[0]
	}
	return [3]*httptest.ResponseRecorder{pair[0], pair[1], hit}
}

var wireRoles = [3]string{"miss", "coalesced", "hit"}

// decodeMeta reads the meta object of a response body.
func decodeMeta(t *testing.T, body []byte) StudyMeta {
	t.Helper()
	var env struct {
		Meta StudyMeta `json:"meta"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("bad response %q: %v", body, err)
	}
	return env.Meta
}

// checkDisposition checks a role's response reports how it was served.
func checkDisposition(t *testing.T, role string, m StudyMeta) {
	t.Helper()
	want := map[string]StudyMeta{
		"miss":      {Cache: "miss"},
		"coalesced": {Cache: "miss", Coalesced: true},
		"hit":       {Cache: "hit"},
	}[role]
	if m.Cache != want.Cache || m.Coalesced != want.Coalesced {
		t.Errorf("%s: served as cache=%q coalesced=%v", role, m.Cache, m.Coalesced)
	}
}

// TestWireBytesStudy: GET and POST /v1/study write, for a miss, a
// coalesced follower and a hit, exactly the old encoder's bytes.
func TestWireBytesStudy(t *testing.T) {
	ws := newWireServer(t)
	for _, tc := range []struct {
		name string
		do   func() *httptest.ResponseRecorder
	}{
		{"GET", func() *httptest.ResponseRecorder {
			return ws.serve(http.MethodGet, "/v1/study?apps=ammp&techs=130nm&instructions=20000", nil)
		}},
		{"POST", func() *httptest.ResponseRecorder {
			return ws.serve(http.MethodPost, "/v1/study", StudyRequest{
				Apps: []string{"gzip"}, Techs: []string{"65nm (1.0V)"}, Instructions: 20_000,
				Fidelity: "adaptive", Mechanisms: []string{"nbti", "em"}})
		}},
	} {
		for i, rec := range ws.missFollowerHit(t, tc.do) {
			role := tc.name + " " + wireRoles[i]
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", role, rec.Code, rec.Body.String())
			}
			m := decodeMeta(t, rec.Body.Bytes())
			checkDisposition(t, wireRoles[i], m)
			want := oldIndented(t, StudyResponse{SchemaVersion: SchemaVersion, Meta: m,
				Study: report.BuildDocument(ws.result(t, m.Key))})
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s: body differs from the old encoder's\ngot  %.300s\nwant %.300s", role, rec.Body.Bytes(), want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type %q", role, ct)
			}
		}
	}
}

// TestWireBytesMTTF: /v1/mttf, which shares the study memo, still writes
// the old encoder's bytes for a miss, a follower and a hit.
func TestWireBytesMTTF(t *testing.T) {
	ws := newWireServer(t)
	recs := ws.missFollowerHit(t, func() *httptest.ResponseRecorder {
		return ws.serve(http.MethodGet, "/v1/mttf?apps=crafty&techs=90nm&instructions=20000", nil)
	})
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", wireRoles[i], rec.Code, rec.Body.String())
		}
		m := decodeMeta(t, rec.Body.Bytes())
		checkDisposition(t, wireRoles[i], m)
		want := oldIndented(t, MTTFResponse{SchemaVersion: SchemaVersion, Meta: m,
			MTTF: report.BuildMTTFSummary(ws.result(t, m.Key))})
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: body differs from the old encoder's", wireRoles[i])
		}
	}
}

// TestWireBytesStream: the closing study line of /v1/study/stream embeds
// the memo's compact document and equals the old encoder's line; a
// follower's and a hit's whole replayed stream matches it line for line.
func TestWireBytesStream(t *testing.T) {
	ws := newWireServer(t)
	recs := ws.missFollowerHit(t, func() *httptest.ResponseRecorder {
		return ws.serve(http.MethodGet, "/v1/study/stream?apps=mgrid&techs=130nm,90nm&instructions=20000", nil)
	})
	for i, rec := range recs {
		role := wireRoles[i]
		var lines [][]byte
		sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			lines = append(lines, append(append([]byte(nil), sc.Bytes()...), '\n'))
		}
		if len(lines) < 2 {
			t.Fatalf("%s: stream too short: %q", role, rec.Body.String())
		}
		var open streamMetaEvent
		if err := json.Unmarshal(lines[0], &open); err != nil {
			t.Fatal(err)
		}
		res := ws.result(t, open.Key)
		last := lines[len(lines)-1]
		m := decodeMeta(t, last)
		checkDisposition(t, role, m)
		if want := oldStreamLine(t, oldStreamStudyEvent{"study", m, report.BuildDocument(res)}); !bytes.Equal(last, want) {
			t.Errorf("%s: study line differs from the old encoder's\ngot  %.300s\nwant %.300s", role, last, want)
		}
		if role == "miss" {
			continue // the leader's cells arrive live, in completion order
		}
		want := [][]byte{oldStreamLine(t, open)}
		for j, a := range res.Apps {
			want = append(want, oldStreamLine(t, streamAppEvent{"app", j + 1, len(res.Apps), streamSourceResultCache, a}))
		}
		want = append(want, last)
		if !bytes.Equal(bytes.Join(lines, nil), bytes.Join(want, nil)) {
			t.Errorf("%s: replayed stream differs from the old encoder's", role)
		}
	}
}

// TestWireBytesBatchJobs: study and Monte Carlo job results write the old
// encoder's bytes, whether the job computed its study, joined an
// interactive request's flight, or found it in the memo.
func TestWireBytesBatchJobs(t *testing.T) {
	ws := newWireServer(t)
	studyJob := func(app string) BatchJobRequest {
		var j BatchJobRequest
		j.Apps, j.Techs, j.Instructions = []string{app}, []string{"130nm"}, 20_000
		return j
	}
	jobBody := func(resp BatchSubmitResponse, i int) []byte {
		t.Helper()
		rec := ws.serve(http.MethodGet, "/v1/batch/"+resp.BatchID+"/jobs/"+resp.JobIDs[i], nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("job result status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	checkStudyJob := func(role string, body []byte) {
		t.Helper()
		m := decodeMeta(t, body)
		want := oldIndented(t, StudyResponse{SchemaVersion: SchemaVersion, Meta: m,
			Study: report.BuildDocument(ws.result(t, m.Key))})
		if !bytes.Equal(body, want) {
			t.Errorf("%s study job: body differs from the old encoder's", role)
		}
	}

	// Miss: the job computes its study.
	miss := submitBatch(t, ws.Server, []BatchJobRequest{studyJob("ammp")}, "")
	waitBatchDone(t, ws.Server, miss.BatchID)
	missBody := jobBody(miss, 0)
	checkStudyJob("miss", missBody)

	// Coalesced: the job joins an interactive request's held flight.
	ws.hold.Store(ws.metrics.Coalesced.Value() + 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ws.serve(http.MethodGet, "/v1/study?apps=gzip&techs=130nm&instructions=20000", nil)
	}()
	joined := submitBatch(t, ws.Server, []BatchJobRequest{studyJob("gzip")}, "")
	waitBatchDone(t, ws.Server, joined.BatchID)
	<-done
	ws.hold.Store(0)
	checkStudyJob("coalesced", jobBody(joined, 0))

	// Hit: a Monte Carlo job over a study the memo holds, plus that study.
	mc := studyJob("ammp")
	mc.Kind = sim.JobMC
	mc.Samples, mc.Seed = 200, 7
	hit := submitBatch(t, ws.Server, []BatchJobRequest{mc, studyJob("ammp")}, "")
	waitBatchDone(t, ws.Server, hit.BatchID)
	checkStudyJob("hit", jobBody(hit, 1))

	body := jobBody(hit, 0)
	var env struct {
		Meta StudyMeta    `json:"meta"`
		MC   sim.MCResult `json:"mc"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	res, err := sim.MonteCarloStudy(context.Background(), ws.result(t, decodeMeta(t, missBody).Key),
		env.MC.MC, sim.MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := oldIndented(t, struct {
		SchemaVersion int          `json:"schema_version"`
		Meta          StudyMeta    `json:"meta"`
		MC            sim.MCResult `json:"mc"`
	}{SchemaVersion, env.Meta, *res})
	if !bytes.Equal(body, want) {
		t.Errorf("MC job: body differs from the old encoder's")
	}
}
