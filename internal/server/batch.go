package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/ramp-sim/ramp/internal/jobs"
	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/sim"
)

// Batch study API: POST /v1/batch submits up to Config.BatchMaxJobs study
// and Monte Carlo configs in one request and returns 202 with a batch ID;
// the work then drains through the internal/jobs queue asynchronously —
// degrading to queueing under load where the interactive endpoints shed
// 429s. Each config is content-addressed (sim.StudyKey / sim.MCStudyKey)
// and deduplicated at two levels: the queue's dedup index gives identical
// configs one job identity, within the batch and against live jobs; the
// result memo then serves each job from a finished result or joins it to
// an identical computation already in flight, batch or interactive.
//
// Endpoints:
//
//	POST   /v1/batch                      submit; X-Tenant selects the quota bucket
//	GET    /v1/batch/{id}                 batch status with per-job state/percent
//	GET    /v1/batch/{id}/stream          NDJSON job-transition events + heartbeats
//	DELETE /v1/batch/{id}                 cancel every non-terminal job
//	GET    /v1/batch/{id}/jobs/{job}      finished job's full result document
//	DELETE /v1/batch/{id}/jobs/{job}      cancel one job
//
// Completed jobs are retained for Config.JobTTL after the batch finishes;
// their results also warm the shared result cache, so a follow-up
// /v1/study with the same config is a cache hit.

// BatchJobRequest is one config inside a batch submission: a study or MC
// request plus the kind discriminator.
type BatchJobRequest struct {
	// Kind is "study" (default) or "mc".
	Kind string `json:"kind"`
	MCStudyRequest
}

// BatchRequest is the wire form of POST /v1/batch.
type BatchRequest struct {
	// Jobs lists the configs; at most Config.BatchMaxJobs per request.
	Jobs []BatchJobRequest `json:"jobs"`
}

// BatchSubmitResponse is the 202 payload of POST /v1/batch.
type BatchSubmitResponse struct {
	SchemaVersion int    `json:"schema_version"`
	RequestID     string `json:"request_id,omitempty"`
	BatchID       string `json:"batch_id"`
	// JobIDs maps each submitted config position to its job; duplicate
	// configs repeat the deduplicated job's ID.
	JobIDs []string `json:"job_ids"`
	// UniqueJobs counts distinct jobs; Deduped counts configs that
	// reused another config's job (within this batch or a live one).
	UniqueJobs int `json:"unique_jobs"`
	Deduped    int `json:"deduped"`
}

// BatchStatusResponse is the GET /v1/batch/{id} payload (also returned by
// the DELETE cancellations).
type BatchStatusResponse struct {
	SchemaVersion int              `json:"schema_version"`
	Batch         jobs.BatchStatus `json:"batch"`
}

// Batch stream events, discriminated by "event": meta (once, first), job
// (one per observed job state, then one per transition), heartbeat, batch
// (once, last, when every job is terminal).
type batchMetaEvent struct {
	SchemaVersion int    `json:"schema_version"`
	Event         string `json:"event"` // "meta"
	RequestID     string `json:"request_id,omitempty"`
	BatchID       string `json:"batch_id"`
	JobsTotal     int    `json:"jobs_total"` // unique jobs
}

type batchJobEvent struct {
	Event string        `json:"event"` // "job"
	From  jobs.State    `json:"from,omitempty"`
	To    jobs.State    `json:"to,omitempty"`
	Job   jobs.Snapshot `json:"job"`
}

type batchDoneEvent struct {
	Event string           `json:"event"` // "batch"
	Batch jobs.BatchStatus `json:"batch"`
}

// batchPayload is the executor input carried by each job.
type batchPayload struct {
	item sim.BatchItem
	// studyKey is the underlying deterministic study key (equal to the
	// job key for study jobs; the seed-independent base for MC jobs).
	studyKey string
}

// resolveBatchItem turns one wire config into a planned sim.BatchItem.
func (s *Server) resolveBatchItem(req BatchJobRequest) (sim.BatchItem, error) {
	kind := req.Kind
	if kind == "" {
		kind = sim.JobStudy
	}
	switch kind {
	case sim.JobStudy:
		if req.Samples != 0 || req.Model != "" || len(req.Percentiles) > 0 ||
			req.CILevel != 0 || req.Seed != 0 || req.BatchSize != 0 {
			return sim.BatchItem{}, errors.New(`kind "study" does not accept Monte Carlo fields; use kind "mc"`)
		}
		cfg, profiles, techs, err := s.resolve(req.StudyRequest)
		if err != nil {
			return sim.BatchItem{}, err
		}
		return sim.BatchItem{Kind: sim.JobStudy, Config: cfg, Profiles: profiles, Techs: techs}, nil
	case sim.JobMC:
		cfg, profiles, techs, mcfg, err := s.resolveMC(req.MCStudyRequest)
		if err != nil {
			return sim.BatchItem{}, err
		}
		return sim.BatchItem{Kind: sim.JobMC, Config: cfg, Profiles: profiles, Techs: techs, MC: mcfg}, nil
	default:
		return sim.BatchItem{}, fmt.Errorf("unknown job kind %q (use study or mc)", kind)
	}
}

// tenantFrom extracts and validates the quota bucket from the X-Tenant
// header; absent means "default".
func tenantFrom(r *http.Request) (string, error) {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		return "default", nil
	}
	if len(t) > 64 {
		return "", errors.New("X-Tenant longer than 64 bytes")
	}
	for _, c := range t {
		if !(c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
			return "", fmt.Errorf("X-Tenant %q contains invalid characters", t)
		}
	}
	return t, nil
}

// handleBatch routes /v1/batch: POST submits a batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use POST"))
		return
	}
	tenant, err := tenantFrom(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, errors.New("empty batch: provide jobs[]"))
		return
	}
	if len(req.Jobs) > s.cfg.BatchMaxJobs {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("batch of %d jobs exceeds the per-request cap %d", len(req.Jobs), s.cfg.BatchMaxJobs))
		return
	}

	items := make([]sim.BatchItem, len(req.Jobs))
	for i, jr := range req.Jobs {
		item, err := s.resolveBatchItem(jr)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("jobs[%d]: %w", i, err))
			return
		}
		items[i] = item
	}
	plan, err := sim.PlanBatch(items)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	// Stamp each job with the submitting request's identity; the executor
	// restores it so job spans and run records chain back to this request.
	origin := jobs.Origin{RequestID: obs.RequestIDFrom(r.Context())}
	if tc := obs.TraceContextFrom(r.Context()); tc.Valid() {
		origin.Traceparent = tc.String()
	}
	specs := make([]jobs.Spec, len(items))
	for i, item := range items {
		studyKey := plan.Keys[i]
		if item.Kind == sim.JobMC {
			if studyKey, err = sim.StudyKey(item.Config, item.Profiles, item.Techs); err != nil {
				s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
				return
			}
		}
		specs[i] = jobs.Spec{
			Key:     plan.Keys[i],
			Kind:    jobs.Kind(item.Kind),
			Origin:  origin,
			Payload: batchPayload{item: item, studyKey: studyKey},
		}
	}

	status, err := s.jobs.Submit(tenant, specs)
	if err != nil {
		var quota *jobs.QuotaError
		switch {
		case errors.Is(err, jobs.ErrQueueFull), errors.As(err, &quota):
			s.writeRetryAfter(w)
			s.writeError(w, http.StatusTooManyRequests, CodeOverloaded, err)
		case errors.Is(err, jobs.ErrClosed):
			s.writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err)
		default:
			s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		}
		return
	}
	s.metrics.Batches.Add(1)
	s.obs.batches.Inc()
	s.logger.Info("batch submitted",
		"request_id", obs.RequestIDFrom(r.Context()),
		"batch_id", status.ID, "tenant", tenant,
		"jobs", len(req.Jobs), "unique", len(status.Jobs))
	s.writeJSON(w, http.StatusAccepted, BatchSubmitResponse{
		SchemaVersion: SchemaVersion,
		RequestID:     obs.RequestIDFrom(r.Context()),
		BatchID:       status.ID,
		JobIDs:        status.JobIDs,
		UniqueJobs:    len(status.Jobs),
		Deduped:       len(status.JobIDs) - len(status.Jobs),
	})
}

// handleBatchSub routes /v1/batch/{id}[...]: status, stream, job results,
// and cancellation.
func (s *Server) handleBatchSub(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/batch/")
	parts := strings.Split(rest, "/")
	switch {
	case len(parts) == 1 && parts[0] != "":
		s.handleBatchOne(w, r, parts[0])
	case len(parts) == 2 && parts[1] == "stream":
		s.handleBatchStream(w, r, parts[0])
	case len(parts) == 3 && parts[1] == "jobs" && parts[2] != "":
		s.handleBatchJob(w, r, parts[0], parts[2])
	default:
		s.writeError(w, http.StatusNotFound, CodeBadRequest,
			fmt.Errorf("unknown batch path %q", r.URL.Path))
	}
}

// handleBatchOne serves GET (status) and DELETE (cancel) for one batch.
func (s *Server) handleBatchOne(w http.ResponseWriter, r *http.Request, batchID string) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodDelete:
		if err := s.jobs.CancelBatch(batchID); err != nil {
			s.writeError(w, http.StatusNotFound, CodeBadRequest,
				fmt.Errorf("unknown batch %q", batchID))
			return
		}
	default:
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use GET or DELETE"))
		return
	}
	status, ok := s.jobs.Batch(batchID)
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeBadRequest,
			fmt.Errorf("unknown batch %q (results expire after %s)", batchID, s.cfg.JobTTL))
		return
	}
	s.writeJSON(w, http.StatusOK, BatchStatusResponse{SchemaVersion: SchemaVersion, Batch: status})
}

// handleBatchJob serves GET (result document) and DELETE (cancel) for one
// job of a batch.
func (s *Server) handleBatchJob(w http.ResponseWriter, r *http.Request, batchID, jobID string) {
	j, ok := s.jobs.Job(batchID, jobID)
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeBadRequest,
			fmt.Errorf("unknown job %q in batch %q", jobID, batchID))
		return
	}
	switch r.Method {
	case http.MethodDelete:
		_ = s.jobs.Cancel(jobID)
		s.writeJSON(w, http.StatusOK, struct {
			SchemaVersion int           `json:"schema_version"`
			Job           jobs.Snapshot `json:"job"`
		}{SchemaVersion, j.Snapshot(s.now())})
		return
	case http.MethodGet:
	default:
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use GET or DELETE"))
		return
	}

	switch j.State() {
	case jobs.StateDone:
	case jobs.StateFailed, jobs.StateCancelled:
		err := j.Err()
		if err == nil {
			err = errors.New("job did not complete")
		}
		s.writeStudyError(w, err)
		return
	default:
		// Not finished yet: point the client back at the status endpoint.
		s.writeError(w, http.StatusConflict, CodeNotReady,
			fmt.Errorf("job %s is %s; poll /v1/batch/%s", jobID, j.State(), batchID))
		return
	}

	res, _ := j.Result()
	meta := StudyMeta{Key: j.Key, Cache: "job"}
	switch v := res.(type) {
	case []byte: // a study job's encoded document
		s.writeStudyResponse(w, meta, v)
	case *sim.MCResult:
		s.writeJSON(w, http.StatusOK, struct {
			SchemaVersion int          `json:"schema_version"`
			Meta          StudyMeta    `json:"meta"`
			MC            sim.MCResult `json:"mc"`
		}{SchemaVersion, meta, *v})
	default:
		s.writeError(w, http.StatusInternalServerError, CodeInternal,
			fmt.Errorf("job %s holds an unexpected result type", jobID))
	}
}

// handleBatchStream serves a batch's progress as NDJSON: a meta event,
// the current state of every job, then live transition events and idle
// heartbeats until every job is terminal, closing with a batch event.
// Disconnecting only stops the stream — queued and running jobs are
// unaffected, and the batch remains pollable.
func (s *Server) handleBatchStream(w http.ResponseWriter, r *http.Request, batchID string) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use GET"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, CodeInternal,
			errors.New("streaming unsupported by connection"))
		return
	}
	events, stop, ok := s.jobs.Subscribe(batchID)
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeBadRequest,
			fmt.Errorf("unknown batch %q", batchID))
		return
	}
	defer stop()
	status, ok := s.jobs.Batch(batchID)
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeBadRequest,
			fmt.Errorf("unknown batch %q", batchID))
		return
	}
	s.metrics.Streams.Add(1)
	s.obs.streams.Inc()

	sw := s.newStreamWriter(w, flusher)
	sw.send(batchMetaEvent{SchemaVersion: SchemaVersion, Event: "meta",
		RequestID: obs.RequestIDFrom(r.Context()), BatchID: batchID, JobsTotal: len(status.Jobs)})
	for _, snap := range status.Jobs {
		sw.send(batchJobEvent{Event: "job", To: snap.State, Job: snap})
	}
	if status.Done {
		sw.send(batchDoneEvent{Event: "batch", Batch: status})
		return
	}

	heartbeat := time.NewTicker(s.cfg.StreamHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-events:
			sw.send(batchJobEvent{Event: "job", From: ev.From, To: ev.To, Job: ev.Job})
			if ev.To.Terminal() {
				if st, ok := s.jobs.Batch(batchID); ok && st.Done {
					sw.send(batchDoneEvent{Event: "batch", Batch: st})
					return
				}
			}
		case <-heartbeat.C:
			// The heartbeat doubles as a liveness re-check: subscriber
			// channels drop events under pressure, so poll the authoritative
			// state and finish if everything is terminal.
			if st, ok := s.jobs.Batch(batchID); ok && st.Done {
				sw.send(batchDoneEvent{Event: "batch", Batch: st})
				return
			}
			sw.send(streamHeartbeatEvent{"heartbeat"})
		}
	}
}

// executeJob is the queue's Executor: it serves a job's payload through
// the same result memo and stage cache the interactive endpoints use, so
// batch and interactive traffic deduplicate against each other. Batch
// jobs bypass the interactive admission queue — their concurrency is
// bounded by the queue's worker pool instead, which is what lets overload
// degrade to queueing rather than 429s.
func (s *Server) executeJob(ctx context.Context, j *jobs.Job) (any, error) {
	payload, ok := j.Payload.(batchPayload)
	if !ok {
		return nil, &badRequestError{fmt.Errorf("job %s carries no batch payload", j.ID)}
	}
	item := payload.item
	start := s.now()
	// Restore the submitting request's identity so executor spans, logs,
	// and the run record stay attributable end to end across the queue.
	if j.Origin.RequestID != "" {
		ctx = obs.WithRequestID(ctx, j.Origin.RequestID)
	}
	if tc, ok := obs.ParseTraceparent(j.Origin.Traceparent); ok {
		ctx = obs.WithTraceContext(ctx, tc)
	}
	ctx, span := obs.StartSpan(obs.WithTracer(ctx, obs.NewTracer(s.obs.jobSink)), spanJobRun)
	span.SetAttr("job", j.ID)
	span.SetAttr("kind", string(j.Kind))
	span.SetAttr("key", j.Key)
	traceID := obs.TraceContextFrom(ctx).TraceID
	if j.Origin.RequestID != "" {
		span.SetAttr("request_id", j.Origin.RequestID)
	}
	if traceID != "" {
		span.SetAttr("trace_id", traceID)
	}
	defer span.Finish()
	s.logger.Info("job start", "job_id", j.ID, "kind", j.Kind, "key", j.Key, "tenant", j.Tenant,
		"request_id", j.Origin.RequestID, "trace_id", traceID)

	// Progress: a study job's cells fill 0–100%; an MC job's study fills
	// the first half and its sampled cells the second.
	job := jobs.JobFrom(ctx)
	progress := func(from, width float64, done, total int) {
		if job != nil && total > 0 {
			job.SetPercent(from + width*float64(done)/float64(total))
		}
	}
	var rn run
	switch item.Kind {
	case sim.JobStudy:
		rn = s.studyRun(j.Key, false, item.Config, item.Profiles, item.Techs, func(ev sim.AppEvent) {
			progress(0, 100, ev.CellsDone, ev.CellsTotal)
		})
	case sim.JobMC:
		rn = s.mcRun(j.Key, payload.studyKey, false, item.Config, item.Profiles, item.Techs, item.MC,
			func(ev sim.AppEvent) { progress(0, 50, ev.CellsDone, ev.CellsTotal) },
			func(ev sim.MCEvent) {
				if ev.Final {
					progress(50, 50, ev.CellsDone, ev.CellsTotal)
				}
			})
	default:
		return nil, &badRequestError{fmt.Errorf("unknown job kind %q", item.Kind)}
	}
	c := s.begin(ctx, rn)
	res, err := c.wait(ctx)
	outcome := "ok"
	if err != nil {
		outcome = "error"
		s.logger.Warn("job failed", "job_id", j.ID, "key", j.Key,
			"request_id", j.Origin.RequestID, "error", err.Error())
	} else {
		s.logger.Info("job done", "job_id", j.ID, "key", j.Key,
			"request_id", j.Origin.RequestID,
			"compute_ms", float64(s.now().Sub(start))/float64(time.Millisecond))
	}
	s.obs.jobRuns.With(string(j.Kind), outcome).Inc()
	if s.ledger != nil {
		snap := j.Snapshot(s.now())
		rec := s.newRunRecord(ctx, "job."+string(j.Kind), j.Key, item.Config,
			len(item.Profiles), start, c.disp, err)
		rec.Tenant = j.Tenant
		rec.JobID = j.ID
		rec.Attempt = snap.Attempts
		rec.QueueMS = snap.QueuedMS
		c.fill(&rec)
		s.appendRun(rec)
	}
	// A finished job is retained for JobTTL, long after the memo may have
	// evicted its entry; a study job keeps only the encoded document its
	// result endpoint serves, not the result as well.
	if e, ok := res.(*studyEntry); ok {
		return e.doc, err
	}
	return res, err
}

// retryableJobError classifies executor failures for the queue: client
// errors and cancellations are permanent, everything else — deadline
// overruns, transient stage failures — earns a retry with backoff.
func retryableJobError(err error) bool {
	var bad *badRequestError
	if errors.As(err, &bad) {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	return true
}
