package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// NDJSON streaming protocol of /v1/study/mc. One JSON object per line,
// discriminated by "event":
//
//	meta        — exactly once, first: schema version, the MC study key,
//	              the underlying deterministic study key, grid size,
//	              replica count, lifetime model, and whether the stream
//	              replays a cached result.
//	mc_progress — zero or more per cell while it samples: a running
//	              estimate whose Samples field is below the requested
//	              count. Estimates tighten as replica batches land.
//	mc_cell     — one per finished (application × technology) cell, in
//	              completion order, carrying its final summary.
//	heartbeat   — emitted on an idle connection every
//	              Config.StreamHeartbeat.
//	mc          — exactly once on success, last: the complete
//	              sim.MCResult plus response meta.
//	error       — exactly once on failure, last: the standard error body.
//
// Closing the connection cancels the sampling once no other request waits
// on it. Identical concurrent MC requests share one sampling run, and a
// joining or cache-hit stream replays the finished cells (mc_cell only).
// The deterministic study feeding the sampler coalesces with identical
// /v1/study traffic and its stages stay in the stage cache, so two MC
// requests differing only in seed or sample count share one simulation.

// MCStudyRequest is the wire form of a Monte Carlo study query: the
// study selection plus the sampling knobs of sim.MCConfig, flattened
// into one JSON object.
type MCStudyRequest struct {
	StudyRequest
	sim.MCConfig
}

// mcMetaEvent opens every MC stream.
type mcMetaEvent struct {
	SchemaVersion int    `json:"schema_version"`
	Event         string `json:"event"` // "meta"
	RequestID     string `json:"request_id,omitempty"`
	Key           string `json:"key"`       // MC study key (seed-dependent)
	StudyKey      string `json:"study_key"` // underlying deterministic study key
	CellsTotal    int    `json:"cells_total"`
	Samples       int    `json:"samples"`
	Model         string `json:"model"`
	Cache         string `json:"cache"` // "hit" or "miss"
}

// mcProgressEvent carries a running estimate for one still-sampling cell.
type mcProgressEvent struct {
	Event     string     `json:"event"` // "mc_progress"
	CellIndex int        `json:"cell_index"`
	Cell      sim.MCCell `json:"cell"`
}

// mcCellEvent carries one finished cell's summary.
type mcCellEvent struct {
	Event     string     `json:"event"` // "mc_cell"
	Done      int        `json:"done"`
	Total     int        `json:"total"`
	CellIndex int        `json:"cell_index"`
	Cell      sim.MCCell `json:"cell"`
}

// mcResultEvent terminates a successful MC stream.
type mcResultEvent struct {
	Event string       `json:"event"` // "mc"
	Meta  StudyMeta    `json:"meta"`
	MC    sim.MCResult `json:"mc"`
}

// mcEventBuffer is the slack beyond one slot per grid cell in the event
// channel, absorbing progress batches while the writer flushes.
const mcEventBuffer = 1024

// parseMCStudyRequest accepts POST application/json bodies and GET query
// parameters (?apps=a,b&techs=x&samples=n&model=m&percentiles=5,50,95&
// ci=0.95&seed=n&batch=n&instructions=n&fidelity=m&mechanisms=em,nbti).
func parseMCStudyRequest(r *http.Request) (MCStudyRequest, error) {
	var req MCStudyRequest
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, fmt.Errorf("bad request body: %w", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.Apps = splitList(q.Get("apps"))
		req.Techs = splitList(q.Get("techs"))
		req.Fidelity = strings.TrimSpace(q.Get("fidelity"))
		req.Mechanisms = splitList(q.Get("mechanisms"))
		if v := q.Get("instructions"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return req, fmt.Errorf("bad instructions %q", v)
			}
			req.Instructions = n
		}
		if v := q.Get("samples"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad samples %q", v)
			}
			req.Samples = n
		}
		req.Model = q.Get("model")
		for _, p := range splitList(q.Get("percentiles")) {
			f, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return req, fmt.Errorf("bad percentile %q", p)
			}
			req.Percentiles = append(req.Percentiles, f)
		}
		if v := q.Get("ci"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return req, fmt.Errorf("bad ci %q", v)
			}
			req.CILevel = f
		}
		if v := q.Get("seed"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return req, fmt.Errorf("bad seed %q", v)
			}
			req.Seed = n
		}
		if v := q.Get("batch"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad batch %q", v)
			}
			req.BatchSize = n
		}
	default:
		return req, errors.New("use GET or POST")
	}
	return req, nil
}

// resolveMC turns a wire MC request into concrete inputs: the study
// resolution of resolve plus a normalized, validated MCConfig held under
// the server's replica caps.
func (s *Server) resolveMC(req MCStudyRequest) (sim.Config, []workload.Profile,
	[]scaling.Technology, sim.MCConfig, error) {
	cfg, profiles, techs, err := s.resolve(req.StudyRequest)
	if err != nil {
		return cfg, nil, nil, sim.MCConfig{}, err
	}
	mcfg := req.MCConfig.Normalized()
	if err := mcfg.Validate(); err != nil {
		return cfg, nil, nil, mcfg, err
	}
	if mcfg.Samples > s.cfg.MaxMCSamples {
		return cfg, nil, nil, mcfg, fmt.Errorf("samples %d exceeds the server cap %d",
			mcfg.Samples, s.cfg.MaxMCSamples)
	}
	if cells := len(profiles) * len(techs); mcfg.Samples*cells > s.cfg.MaxMCReplicas {
		return cfg, nil, nil, mcfg, fmt.Errorf(
			"total replicas %d (%d samples × %d grid cells) exceeds the server cap %d; "+
				"reduce samples or narrow apps/techs",
			mcfg.Samples*cells, mcfg.Samples, cells, s.cfg.MaxMCReplicas)
	}
	return cfg, profiles, techs, mcfg, nil
}

// handleStudyMC serves a Monte Carlo lifetime study incrementally as
// NDJSON through the result memo under the MC key. The leader holds an
// admission slot while it computes and streams its estimates live; its
// deterministic study is read through the memo too (without a second
// slot), so blocking, streaming, MC and batch clients all coalesce against
// each other's simulations. A follower or a hit replays the finished
// result's cells.
func (s *Server) handleStudyMC(w http.ResponseWriter, r *http.Request) {
	req, err := parseMCStudyRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	cfg, profiles, techs, mcfg, err := s.resolveMC(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	studyKey, err := sim.StudyKey(cfg, profiles, techs)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	mcKey, err := sim.MCStudyKey(cfg, mcfg, profiles, techs)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	cellsTotal := len(profiles) * len(techs)
	reqID := obs.RequestIDFrom(r.Context())
	served := s.now()

	// The buffer absorbs progress batches while the writer flushes, so a
	// slow reader rarely stalls the sampling.
	events := make(chan any, cellsTotal+mcEventBuffer)
	publish := publisher(r, events)
	rn := s.mcRun(mcKey, studyKey, true, cfg, profiles, techs, mcfg, nil, func(ev sim.MCEvent) {
		publish(mcEventWire(ev))
	})
	sw, c, v, err := s.serveStream(w, r, rn, events, func(cache string) any {
		s.obs.mcStudies.Inc()
		return mcMetaEvent{SchemaVersion: SchemaVersion, Event: "meta", RequestID: reqID,
			Key: mcKey, StudyKey: studyKey, CellsTotal: cellsTotal,
			Samples: mcfg.Samples, Model: mcfg.Model, Cache: cache}
	})
	if sw == nil {
		return
	}
	var res *sim.MCResult
	if err == nil {
		res = v.(*sim.MCResult)
	}
	if s.ledger != nil {
		rec := s.newRunRecord(r.Context(), "mc", mcKey, cfg, len(profiles), served, c.disp, err)
		c.fill(&rec)
		if res != nil {
			rec.Replicas = res.TotalReplicas
		}
		s.appendRun(rec)
	}
	if err != nil {
		_, code, msg := s.studyErrorStatus(err)
		sw.send(streamErrorEvent{"error", ErrorBody{Code: code, Message: msg.Error()}})
		return
	}
	if c.disp != obs.ResultMiss {
		for i, cell := range res.Cells {
			sw.send(mcCellEvent{"mc_cell", i + 1, len(res.Cells), i, cell})
		}
	}
	sw.send(mcResultEvent{"mc", s.studyMeta(mcKey, c, served), *res})
}

// mcEventWire maps a sampler event to its wire form.
func mcEventWire(ev sim.MCEvent) any {
	if ev.Final {
		return mcCellEvent{"mc_cell", ev.CellsDone, ev.CellsTotal, ev.CellIndex, ev.Cell}
	}
	return mcProgressEvent{"mc_progress", ev.CellIndex, ev.Cell}
}
