package server

import (
	"encoding/json"
	"net/http"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/sim"
)

// NDJSON streaming protocol of /v1/study/stream. One JSON object per
// line, discriminated by "event":
//
//	meta      — exactly once, first: schema version, study key, cell
//	            count, and whether the stream replays a cached result.
//	app       — one per completed (application × technology) cell, in
//	            completion order; a stream that joined another request's
//	            computation or hit the result cache replays them from the
//	            finished result (source "result-cache"). The cell's RawFIT
//	            is uncalibrated; apply the final study document's constants.
//	heartbeat — emitted on an idle connection every Config.StreamHeartbeat
//	            so proxies do not sever long computations.
//	study     — exactly once on success, last: the same document /v1/study
//	            returns (with meta), calibrated.
//	error     — exactly once on failure, last: the standard error body.
//
// Closing the connection cancels the underlying computation once no other
// request waits on it; stages that already completed stay in the stage
// cache, so a repeated request resumes rather than restarts.

// streamMetaEvent opens every stream. RequestID (additive) echoes the
// X-Request-ID header for log correlation.
type streamMetaEvent struct {
	SchemaVersion int    `json:"schema_version"`
	Event         string `json:"event"` // "meta"
	RequestID     string `json:"request_id,omitempty"`
	Key           string `json:"key"`
	CellsTotal    int    `json:"cells_total"`
	Cache         string `json:"cache"` // "hit" or "miss"
}

// streamAppEvent carries one completed cell.
type streamAppEvent struct {
	Event  string     `json:"event"` // "app"
	Done   int        `json:"done"`
	Total  int        `json:"total"`
	Source string     `json:"source"`
	App    sim.AppRun `json:"app"`
}

// streamHeartbeatEvent keeps idle connections alive.
type streamHeartbeatEvent struct {
	Event string `json:"event"` // "heartbeat"
}

// streamErrorEvent terminates a failed stream.
type streamErrorEvent struct {
	Event string    `json:"event"` // "error"
	Error ErrorBody `json:"error"`
}

// streamSourceResultCache labels cells replayed from a finished result.
const streamSourceResultCache = "result-cache"

// handleStudyStream serves a study incrementally as NDJSON through the
// result memo, so blocking, streaming, MC and batch clients coalesce
// against each other's work at both the whole-study and the stage level.
// The leader streams its cells live and holds an admission slot while it
// computes; a follower or a hit replays the finished result's cells.
func (s *Server) handleStudyStream(w http.ResponseWriter, r *http.Request) {
	req, err := parseStudyRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	cfg, profiles, techs, err := s.resolve(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	key, err := sim.StudyKey(cfg, profiles, techs)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	cellsTotal := len(profiles) * len(techs)
	reqID := obs.RequestIDFrom(r.Context())
	served := s.now()

	// The buffer holds every cell, so a slow reader never stalls the
	// simulation.
	events := make(chan any, cellsTotal)
	publish := publisher(r, events)
	rn := s.studyRun(key, true, cfg, profiles, techs, func(ev sim.AppEvent) {
		publish(streamAppEvent{"app", ev.CellsDone, ev.CellsTotal, ev.Source, ev.Run})
	})
	sw, c, v, err := s.serveStream(w, r, rn, events, func(cache string) any {
		s.metrics.Streams.Add(1)
		s.obs.streams.Inc()
		return streamMetaEvent{SchemaVersion: SchemaVersion, Event: "meta",
			RequestID: reqID, Key: key, CellsTotal: cellsTotal, Cache: cache}
	})
	if sw == nil {
		return
	}
	if s.ledger != nil {
		rec := s.newRunRecord(r.Context(), "study.stream", key, cfg, len(profiles), served, c.disp, err)
		c.fill(&rec)
		s.appendRun(rec)
	}
	if err != nil {
		_, code, msg := s.studyErrorStatus(err)
		sw.send(streamErrorEvent{"error", ErrorBody{Code: code, Message: msg.Error()}})
		return
	}
	e := v.(*studyEntry)
	if c.disp != obs.ResultMiss {
		for i, a := range e.res.Apps {
			sw.send(streamAppEvent{"app", i + 1, len(e.res.Apps), streamSourceResultCache, a})
		}
	}
	sw.sendStudy(s.studyMeta(key, c, served), e.doc)
}

// streamWriter serialises NDJSON events and flushes after each one. Write
// errors latch: once the client is gone every later send is a no-op and
// the handler unwinds via context cancellation.
type streamWriter struct {
	w       http.ResponseWriter
	enc     *json.Encoder
	flusher http.Flusher
	events  *obs.CounterVec // sent events by type; nil disables counting
	failed  bool
}

func (s *Server) newStreamWriter(w http.ResponseWriter, f http.Flusher) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	return &streamWriter{w: w, enc: json.NewEncoder(w), flusher: f, events: s.obs.streamEvents}
}

func (sw *streamWriter) send(v any) {
	if sw.failed {
		return
	}
	if err := sw.enc.Encode(v); err != nil {
		sw.failed = true
		return
	}
	sw.sent(streamEventName(v))
}

// streamStudyHead opens the closing study event up to its meta value.
const streamStudyHead = `{"event":"study","meta":`

// sendStudy writes the closing study event, {"event":"study","meta":…,
// "study":<document>}, around a memo entry's compact document.
func (sw *streamWriter) sendStudy(meta StudyMeta, doc []byte) {
	if sw.failed {
		return
	}
	line, err := appendStudyEnvelope(make([]byte, 0, len(doc)+256), streamStudyHead, meta, doc)
	if err == nil {
		_, err = sw.w.Write(append(line, '\n'))
	}
	if err != nil {
		sw.failed = true
		return
	}
	sw.sent("study")
}

// sent flushes a written event and counts it.
func (sw *streamWriter) sent(name string) {
	sw.flusher.Flush()
	if sw.events != nil {
		sw.events.With(name).Inc()
	}
}

// streamEventName maps a wire event to its metrics label.
func streamEventName(v any) string {
	switch v.(type) {
	case streamMetaEvent:
		return "meta"
	case streamAppEvent:
		return "app"
	case streamHeartbeatEvent:
		return "heartbeat"
	case batchMetaEvent:
		return "meta"
	case batchJobEvent:
		return "job"
	case batchDoneEvent:
		return "batch"
	case mcMetaEvent:
		return "meta"
	case mcProgressEvent:
		return "mc_progress"
	case mcCellEvent:
		return "mc_cell"
	case mcResultEvent:
		return "mc"
	case opsMetaEvent:
		return "meta"
	case opsRunEvent:
		return "run"
	case streamErrorEvent:
		return "error"
	default:
		return "unknown"
	}
}
