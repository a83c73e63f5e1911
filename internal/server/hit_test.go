package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/ramp-sim/ramp/internal/sim"
)

// warmHitServer returns a server whose memo holds a real 3-application
// phase-fidelity study, and the request that hits it.
func warmHitServer(tb testing.TB) (*Server, *http.Request) {
	cfg := Config{Sim: sim.DefaultConfig()}
	cfg.Sim.Instructions = 200_000
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	req := httptest.NewRequest(http.MethodGet, "/v1/study?apps=ammp,gzip,gcc&fidelity=phase", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("warming study: status %d: %s", rec.Code, rec.Body.String())
	}
	return s, req
}

// TestWarmStudyHitAllocs gates the allocations of one warm /v1/study hit
// through the full handler: the key is derived without a generic-map round
// trip and the document is not re-encoded, so a hit allocates little more
// than the request plumbing. The count is host-independent.
func TestWarmStudyHitAllocs(t *testing.T) {
	s, req := warmHitServer(t)
	allocs := testing.AllocsPerRun(50, func() {
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	})
	if allocs > 250 {
		t.Errorf("warm /v1/study hit: %.0f allocations, want ≤ 250", allocs)
	}
}

// BenchmarkWarmStudyHit times one warm /v1/study hit through the handler.
func BenchmarkWarmStudyHit(b *testing.B) {
	s, req := warmHitServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}
}
