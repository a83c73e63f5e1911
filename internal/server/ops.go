package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/sim"
)

// The ops plane: query surfaces over the run ledger. Aggregate counters
// live at /metrics; these endpoints answer the per-run question — what
// did one study cost, stage by stage, and which cache saved it.
//
//	GET /v1/ops/runs        recent run records, newest first; filters
//	                        tenant=, key=, outcome=, kind=, limit=
//	GET /v1/ops/runs/{id}   one record by ledger ID
//	GET /v1/ops/tail        NDJSON live stream of records as runs finish
//	                        (?replay=N prepends the last N records),
//	                        with the standard stream heartbeats
//
// All three answer 404 when the ledger is disabled (Config.LedgerSize
// < 0). Every appended record is also logged as one wide "run" line, so
// log pipelines get the same attribution without polling.

// OpsRunsResponse is the GET /v1/ops/runs payload.
type OpsRunsResponse struct {
	SchemaVersion int             `json:"schema_version"`
	Ledger        obs.LedgerStats `json:"ledger"`
	Runs          []obs.RunRecord `json:"runs"`
}

// OpsRunResponse is the GET /v1/ops/runs/{id} payload.
type OpsRunResponse struct {
	SchemaVersion int           `json:"schema_version"`
	Run           obs.RunRecord `json:"run"`
}

// opsMetaEvent opens the /v1/ops/tail stream.
type opsMetaEvent struct {
	SchemaVersion int             `json:"schema_version"`
	Event         string          `json:"event"` // "meta"
	RequestID     string          `json:"request_id,omitempty"`
	Ledger        obs.LedgerStats `json:"ledger"`
}

// opsRunEvent carries one run record on the tail stream.
type opsRunEvent struct {
	Event string        `json:"event"` // "run"
	Run   obs.RunRecord `json:"run"`
}

// opsDefaultLimit caps /v1/ops/runs responses when the client names no
// limit.
const opsDefaultLimit = 100

// ledgerEnabled 404s ops requests when the ledger is off. 404 reuses
// CodeBadRequest — the error-code set is closed (precedent: the trace
// endpoint's "nothing retained" answer).
func (s *Server) ledgerEnabled(w http.ResponseWriter) bool {
	if s.ledger != nil {
		return true
	}
	s.writeError(w, http.StatusNotFound, CodeBadRequest,
		errors.New("run ledger disabled (server started with a negative ledger size)"))
	return false
}

// handleOpsRuns lists recent run records, newest first.
func (s *Server) handleOpsRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use GET"))
		return
	}
	if !s.ledgerEnabled(w) {
		return
	}
	q := r.URL.Query()
	f := obs.RunFilter{
		Tenant:  q.Get("tenant"),
		Key:     q.Get("key"),
		Outcome: q.Get("outcome"),
		Kind:    q.Get("kind"),
		Limit:   opsDefaultLimit,
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		f.Limit = n
	}
	runs := s.ledger.Runs(f)
	if runs == nil {
		runs = []obs.RunRecord{}
	}
	s.writeJSON(w, http.StatusOK, OpsRunsResponse{
		SchemaVersion: SchemaVersion, Ledger: s.ledger.Stats(), Runs: runs})
}

// handleOpsRun serves one record by ID.
func (s *Server) handleOpsRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use GET"))
		return
	}
	if !s.ledgerEnabled(w) {
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/ops/runs/")
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil || raw == "" {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad run id %q", raw))
		return
	}
	rec, ok := s.ledger.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeBadRequest,
			fmt.Errorf("run %d not retained (ledger keeps the last %d records)",
				id, s.ledger.Stats().Capacity))
		return
	}
	s.writeJSON(w, http.StatusOK, OpsRunResponse{SchemaVersion: SchemaVersion, Run: rec})
}

// handleOpsTail streams run records live as NDJSON: a meta event, an
// optional replay of recent records (?replay=N, oldest first), then one
// "run" event per completed run plus idle heartbeats. Records appended
// faster than the client drains are dropped, never buffered unboundedly
// — the ledger itself remains the queryable source of truth.
func (s *Server) handleOpsTail(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use GET"))
		return
	}
	if !s.ledgerEnabled(w) {
		return
	}
	replay := 0
	if v := r.URL.Query().Get("replay"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad replay %q", v))
			return
		}
		replay = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, CodeInternal,
			errors.New("streaming unsupported by connection"))
		return
	}
	s.obs.streams.Inc()

	// Subscribe before the replay snapshot so no record falls between
	// them; records replayed AND delivered live are suppressed by ID.
	live, cancel := s.ledger.Subscribe(64)
	defer cancel()

	sw := s.newStreamWriter(w, flusher)
	sw.send(opsMetaEvent{SchemaVersion: SchemaVersion, Event: "meta",
		RequestID: obs.RequestIDFrom(r.Context()), Ledger: s.ledger.Stats()})
	var lastSent uint64
	if replay > 0 {
		recent := s.ledger.Runs(obs.RunFilter{Limit: replay})
		for i := len(recent) - 1; i >= 0; i-- { // newest-first → chronological
			sw.send(opsRunEvent{Event: "run", Run: recent[i]})
			lastSent = recent[i].ID
		}
	}

	heartbeat := time.NewTicker(s.cfg.StreamHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		case rec := <-live:
			if rec.ID <= lastSent {
				continue
			}
			lastSent = rec.ID
			sw.send(opsRunEvent{Event: "run", Run: rec})
		case <-heartbeat.C:
			sw.send(streamHeartbeatEvent{"heartbeat"})
		}
	}
}

// run-record assembly --------------------------------------------------------

// runOutcome classifies an execution error into a ledger outcome and its
// message.
func runOutcome(err error) (outcome, msg string) {
	if err == nil {
		return obs.RunOK, ""
	}
	return obs.OutcomeFor(err), err.Error()
}

// fidelityLabel is the effective fidelity mode of a resolved config.
func fidelityLabel(cfg sim.Config) string {
	if cfg.Fidelity == nil || cfg.Fidelity.Mode == "" {
		return string(sim.FidelityExact)
	}
	return string(cfg.Fidelity.Mode)
}

// newRunRecord assembles the identity and configuration half of a run
// record — who ran what, under which request and trace, with which
// outcome. Stage and cache costs are merged in by the caller from its
// RunStats before appendRun.
func (s *Server) newRunRecord(ctx context.Context, kind, key string, cfg sim.Config,
	nProfiles int, start time.Time, resultCache string, err error) obs.RunRecord {
	outcome, msg := runOutcome(err)
	return obs.RunRecord{
		Kind:         kind,
		Key:          key,
		Tenant:       tenantFromCtx(ctx),
		RequestID:    obs.RequestIDFrom(ctx),
		TraceID:      obs.TraceContextFrom(ctx).TraceID,
		Fidelity:     fidelityLabel(cfg),
		Mechanisms:   cfg.Mechanisms,
		Outcome:      outcome,
		Error:        msg,
		ResultCache:  resultCache,
		Start:        start.UTC(),
		WallMS:       float64(s.now().Sub(start)) / float64(time.Millisecond),
		Instructions: cfg.Instructions * int64(nProfiles),
	}
}

// appendRun stores the record in the ledger and emits the canonical
// one-line wide event — every dimension of the run on a single "run"
// log record, so log pipelines can attribute cost without scraping
// /v1/ops. No-op when the ledger is disabled.
func (s *Server) appendRun(rec obs.RunRecord) {
	if s.ledger == nil {
		return
	}
	rec = s.ledger.Append(rec)
	s.logger.Info("run",
		"run_id", rec.ID,
		"kind", rec.Kind,
		"key", rec.Key,
		"tenant", rec.Tenant,
		"request_id", rec.RequestID,
		"trace_id", rec.TraceID,
		"job_id", rec.JobID,
		"fidelity", rec.Fidelity,
		"outcome", rec.Outcome,
		"result_cache", rec.ResultCache,
		"wall_ms", rec.WallMS,
		"queue_ms", rec.QueueMS,
		"cpu_ms", rec.CPUMS,
		"instructions", rec.Instructions,
		"cells", rec.Cells,
		"cells_computed", rec.CellsComputed,
		"replicas", rec.Replicas,
		"error", rec.Error,
	)
}
