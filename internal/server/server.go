// Package server implements rampd, the reliability-evaluation service: an
// HTTP JSON API over the sim/workload/scaling layers that serves scaling
// studies and lifetime summaries to many concurrent clients without paying
// a cold simulation per query.
//
// Two mechanisms carry the load:
//
//   - one result memo (Cache) for every serving path. Each answer — a study,
//     a stream, a Monte Carlo study, a batch job — is named by its content
//     address (sim.StudyKey / sim.MCStudyKey). A key maps either to its
//     finished value (LRU + TTL), served from memory in microseconds, or to
//     the one computation of it in flight, which every concurrent identical
//     request joins and shares. Streaming followers and hits replay the
//     finished result's cells;
//   - a bounded admission queue that sheds excess load with 429 +
//     Retry-After instead of queueing without bound, plus a per-flight
//     compute deadline propagated into the simulation.
//
// Every request observes the shared sched.Counters, the cache counters,
// and the request/latency/coalescing metrics exported at /metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/jobs"
	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/report"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// errOverloaded marks an admission-queue rejection; handlers translate it
// to 429 + Retry-After.
var errOverloaded = errors.New("server: admission queue full")

// SchemaVersion is the wire-format version carried by every JSON response
// (and by the first event of every NDJSON stream) as "schema_version".
//
// Versioning policy: additive changes — new fields, new endpoints, new
// event types — keep the version unchanged; clients must ignore unknown
// fields. The version increments only when an existing field's meaning,
// type, or presence changes incompatibly, and rampd then serves the new
// number on every endpoint simultaneously.
const SchemaVersion = 1

// Error codes carried in the error envelope's "code" field. The set is
// closed under the current schema version: clients may switch on it.
const (
	// CodeBadRequest: the request itself is invalid (unknown benchmark,
	// bad budget, malformed body).
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeOverloaded: the admission queue is full; retry after the
	// Retry-After hint.
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded: the study hit the server's compute deadline.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeUnavailable: the client went away or the server is shutting
	// down mid-computation.
	CodeUnavailable = "unavailable"
	// CodeInternal: everything else.
	CodeInternal = "internal"
	// CodeNotReady: the requested job has not finished yet; poll the batch
	// status endpoint. (Additive to the original code set, same schema
	// version: clients switching on codes must ignore unknown ones.)
	CodeNotReady = "not_ready"
)

// ErrorBody is the machine-readable error payload of the envelope.
type ErrorBody struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// ErrorResponse is the stable error envelope every non-2xx JSON response
// uses: {"schema_version":1,"error":{"code":"...","message":"..."}}. The
// request_id field (additive, omitted when unknown) echoes the X-Request-ID
// header so clients can correlate failures with server logs.
type ErrorResponse struct {
	SchemaVersion int       `json:"schema_version"`
	RequestID     string    `json:"request_id,omitempty"`
	Error         ErrorBody `json:"error"`
}

// Config parameterises a Server.
type Config struct {
	// Sim is the base simulation configuration; per-request instruction
	// budgets override Sim.Instructions within [1, MaxInstructions].
	Sim sim.Config
	// Registry resolves benchmark names; nil uses the Table 3 default set.
	Registry *workload.Registry
	// DefaultInstructions is the per-request budget when the request
	// leaves it unset; 0 falls back to Sim.Instructions.
	DefaultInstructions int64
	// MaxInstructions caps the per-request budget; 0 means 10× the
	// default. Requests above the cap are rejected with 400.
	MaxInstructions int64
	// CacheSize bounds the result cache entry count (default 64).
	CacheSize int
	// CacheTTL expires cached results; 0 disables expiry.
	CacheTTL time.Duration
	// MaxQueue bounds concurrently admitted studies (queued + running);
	// excess distinct requests are shed with 429 (default 4).
	MaxQueue int
	// ComputeTimeout is the per-study deadline enforced on the simulation
	// context; 0 disables it.
	ComputeTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// Parallelism bounds how many of one study's cells, or one Monte Carlo
	// study's replica batches, are in progress at once (0: only the
	// process-wide compute pool of GOMAXPROCS slots bounds them).
	Parallelism int
	// CacheDir, when non-empty, spills the stage cache's artifacts
	// (timing traces, thermal series, finished cells) to disk so a
	// restarted rampd starts warm.
	CacheDir string
	// StageCacheEntries bounds each stage store's in-memory LRU
	// (default 256 per stage).
	StageCacheEntries int
	// StreamHeartbeat is the idle-connection heartbeat interval of
	// /v1/study/stream (default 10s).
	StreamHeartbeat time.Duration
	// MaxMCSamples caps the per-cell replica count a /v1/study/mc request
	// may ask for (default 200000). Requests above the cap get 400.
	MaxMCSamples int
	// MaxMCReplicas caps the total replica count — samples × grid cells —
	// of one /v1/study/mc request (default 2000000). Requests above the
	// cap get 400.
	MaxMCReplicas int
	// Logger receives structured request and study logs; nil discards
	// them (tests stay quiet by default).
	Logger *slog.Logger
	// TraceRetain bounds the study traces retained for /v1/study/trace
	// (default 8).
	TraceRetain int
	// TraceSpanLimit bounds the spans captured per study trace
	// (default 16384); excess spans are dropped, not buffered.
	TraceSpanLimit int
	// BatchCapacity bounds live (queued + running) batch jobs across all
	// tenants (default 256); submissions past it are shed with 429.
	BatchCapacity int
	// BatchWorkers is the batch queue's executor pool size (default 2).
	// Batch jobs bypass the interactive admission queue — this bound is
	// what keeps background batches from starving interactive traffic.
	BatchWorkers int
	// BatchMaxJobs caps the configs one POST /v1/batch may carry
	// (default 512).
	BatchMaxJobs int
	// JobMaxAttempts bounds executions per batch job including the first
	// (default 3); transient failures below it retry with backoff.
	JobMaxAttempts int
	// JobRetryBackoff is the delay before a job's first retry, doubling
	// per attempt (default 250ms).
	JobRetryBackoff time.Duration
	// JobTTL is how long finished batches and their job results stay
	// queryable after completion (default 15m).
	JobTTL time.Duration
	// TenantQPS is the sustained per-tenant job-admission rate on
	// /v1/batch, keyed by the X-Tenant header; 0 disables rate limiting.
	TenantQPS float64
	// TenantBurst is the token-bucket depth behind TenantQPS; 0 derives
	// it from TenantQPS.
	TenantBurst int
	// TenantInflight caps a tenant's live (queued + running) batch jobs;
	// 0 disables the cap.
	TenantInflight int
	// ReadyHighWater is the queued-batch-job depth beyond which /readyz
	// reports 503 so load balancers route new work elsewhere; 0 defaults
	// to 90% of BatchCapacity.
	ReadyHighWater int
	// LedgerSize bounds the run ledger behind /v1/ops — one record per
	// served study, MC run, or batch-job execution, oldest evicted first.
	// 0 means obs.DefaultLedgerCapacity; negative disables the ledger
	// (and the /v1/ops endpoints answer 404).
	LedgerSize int
	// Now overrides the clock for tests; nil uses time.Now.
	Now func() time.Time
}

// Server is the rampd request handler set. Create with New; the zero
// value is not usable.
type Server struct {
	cfg        Config
	registry   *workload.Registry
	cache      *Cache
	stageCache *sim.StageCache
	metrics    *Metrics
	obs        *serverObs
	logger     *slog.Logger
	traces     *obs.TraceRing
	schedStats *sched.Counters
	schedRec   *schedRecorder
	jobs       *jobs.Queue
	ledger     *obs.Ledger // nil when disabled by Config.LedgerSize < 0
	admission  chan struct{}
	mux        *http.ServeMux
	now        func() time.Time
	draining   chan struct{} // closed by BeginDrain
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// runStudy indirects the simulation entry point so tests can count
	// and stub invocations.
	runStudy func(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
		techs []scaling.Technology, opts sim.StudyOptions) (*sim.StudyResult, error)
}

// New validates cfg, applies defaults, and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if err := cfg.Sim.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.Registry == nil {
		cfg.Registry = workload.DefaultRegistry()
	}
	if cfg.DefaultInstructions <= 0 {
		cfg.DefaultInstructions = cfg.Sim.Instructions
	}
	if cfg.MaxInstructions <= 0 {
		cfg.MaxInstructions = 10 * cfg.DefaultInstructions
	}
	if cfg.DefaultInstructions > cfg.MaxInstructions {
		return nil, fmt.Errorf("server: default instruction budget %d exceeds cap %d",
			cfg.DefaultInstructions, cfg.MaxInstructions)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 64
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.StreamHeartbeat <= 0 {
		cfg.StreamHeartbeat = 10 * time.Second
	}
	if cfg.TraceRetain <= 0 {
		cfg.TraceRetain = 8
	}
	if cfg.TraceSpanLimit <= 0 {
		cfg.TraceSpanLimit = 16384
	}
	if cfg.MaxMCSamples <= 0 {
		cfg.MaxMCSamples = 200_000
	}
	if cfg.MaxMCSamples > sim.MaxMCSamples {
		cfg.MaxMCSamples = sim.MaxMCSamples
	}
	if cfg.MaxMCReplicas <= 0 {
		cfg.MaxMCReplicas = 2_000_000
	}
	if cfg.BatchCapacity <= 0 {
		cfg.BatchCapacity = 256
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = 2
	}
	if cfg.BatchMaxJobs <= 0 {
		cfg.BatchMaxJobs = 512
	}
	if cfg.ReadyHighWater <= 0 {
		cfg.ReadyHighWater = cfg.BatchCapacity * 9 / 10
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	so := newServerObs()
	stageCache, err := sim.NewStageCache(sim.StageCacheOptions{
		MaxEntries: cfg.StageCacheEntries,
		Dir:        cfg.CacheDir,
		Observer:   so.storeObserver,
	})
	if err != nil {
		return nil, fmt.Errorf("server: stage cache: %w", err)
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	schedStats := sched.NewCounters()
	s := &Server{
		cfg:        cfg,
		registry:   cfg.Registry,
		cache:      NewCache(cfg.CacheSize, cfg.CacheTTL, now),
		stageCache: stageCache,
		metrics:    NewMetrics(),
		obs:        so,
		logger:     logger,
		traces:     obs.NewTraceRing(cfg.TraceRetain),
		schedStats: schedStats,
		schedRec:   &schedRecorder{Counters: schedStats, latency: so.schedLatency, queueWait: so.queueWait},
		admission:  make(chan struct{}, cfg.MaxQueue),
		mux:        http.NewServeMux(),
		now:        now,
		draining:   make(chan struct{}),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		runStudy:   sim.RunStudyContext,
	}
	if cfg.LedgerSize >= 0 {
		s.ledger = obs.NewLedger(cfg.LedgerSize)
	}
	s.jobs, err = jobs.New(jobs.Config{
		Capacity:     cfg.BatchCapacity,
		Workers:      cfg.BatchWorkers,
		MaxAttempts:  cfg.JobMaxAttempts,
		RetryBackoff: cfg.JobRetryBackoff,
		ResultTTL:    cfg.JobTTL,
		Quota: jobs.QuotaConfig{
			JobsPerSecond: cfg.TenantQPS,
			Burst:         cfg.TenantBurst,
			MaxInflight:   cfg.TenantInflight,
		},
		Retryable: retryableJobError,
		Now:       now,
	}, s.executeJob)
	if err != nil {
		baseCancel()
		return nil, fmt.Errorf("server: job queue: %w", err)
	}
	so.bindServer(s)
	s.mux.Handle("/v1/study", s.instrument("/v1/study", s.handleStudy))
	s.mux.Handle("/v1/study/stream", s.instrument("/v1/study/stream", s.handleStudyStream))
	s.mux.Handle("/v1/study/mc", s.instrument("/v1/study/mc", s.handleStudyMC))
	s.mux.Handle("/v1/study/trace", s.instrument("/v1/study/trace", s.handleStudyTrace))
	s.mux.Handle("/v1/mttf", s.instrument("/v1/mttf", s.handleMTTF))
	s.mux.Handle("/v1/profiles", s.instrument("/v1/profiles", s.handleProfiles))
	s.mux.Handle("/v1/mechanisms", s.instrument("/v1/mechanisms", s.handleMechanisms))
	s.mux.Handle("/v1/batch", s.instrument("/v1/batch", s.handleBatch))
	s.mux.Handle("/v1/batch/", s.instrument("/v1/batch/", s.handleBatchSub))
	s.mux.Handle("/v1/ops/runs", s.instrument("/v1/ops/runs", s.handleOpsRuns))
	s.mux.Handle("/v1/ops/runs/", s.instrument("/v1/ops/runs/", s.handleOpsRun))
	s.mux.Handle("/v1/ops/tail", s.instrument("/v1/ops/tail", s.handleOpsTail))
	s.mux.Handle("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("/readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.Handle("/metrics", s.instrument("/metrics", s.handleMetrics))
	return s, nil
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters (read-only use).
func (s *Server) Metrics() *Metrics { return s.metrics }

// SchedStats exposes the shared compute-pool counters.
func (s *Server) SchedStats() sched.Stats { return s.schedStats }

// BeginDrain flips /readyz to 503 so load balancers stop routing new
// work while the HTTP server drains in-flight requests. Liveness
// (/healthz) is unaffected: the process is healthy, just not accepting.
// Idempotent.
func (s *Server) BeginDrain() {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
}

// Close cancels the base context underlying all in-flight simulations and
// shuts the batch job queue down, waiting for its workers. Call only after
// the HTTP server has finished draining: cancelling early would abort
// simulations that admitted requests are still waiting on.
func (s *Server) Close() {
	s.baseCancel()
	s.jobs.Close()
}

// Jobs exposes the batch job queue (facade and test use).
func (s *Server) Jobs() *jobs.Queue { return s.jobs }

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming handlers still see an
// http.Flusher through the instrumentation layer; a no-op when the
// underlying connection cannot flush.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request-ID assignment, W3C trace
// propagation, request counting, in-flight gauging, status accounting,
// the latency histograms, and the structured access log.
//
// Every request gets an ID: a sane inbound X-Request-ID is honoured
// (sanitised against log/header injection), anything else gets a fresh
// one. The ID is echoed on the response header, carried in the request
// context for handlers and error envelopes, and stamped on every log line.
//
// Trace propagation mirrors that: a valid inbound traceparent is
// continued (the response and the request context carry a child of it,
// so the server's work is a new span of the caller's trace), anything
// else starts a fresh sampled trace. The trace ID rides the latency
// histogram as an OpenMetrics exemplar, so a scrape links slow buckets
// to concrete traces.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		reqID := obs.SanitizeRequestID(r.Header.Get("X-Request-ID"))
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if ok {
			tc = tc.Child()
		} else {
			tc = obs.NewTraceContext()
		}
		w.Header().Set("X-Request-ID", reqID)
		w.Header().Set("Traceparent", tc.String())
		ctx := obs.WithRequestID(r.Context(), reqID)
		ctx = obs.WithTraceContext(ctx, tc)
		// Tenant parsing is lenient here — a malformed X-Tenant only fails
		// the endpoints that charge quota to it (handleBatch revalidates).
		if tenant, terr := tenantFrom(r); terr == nil {
			ctx = withTenant(ctx, tenant)
		}
		r = r.WithContext(ctx)

		s.metrics.Requests.Add(endpoint, 1)
		s.obs.httpRequests.With(endpoint).Inc()
		s.metrics.InFlightHTTP.Add(1)
		s.obs.inflight.Add(1)
		defer func() {
			s.metrics.InFlightHTTP.Add(-1)
			s.obs.inflight.Add(-1)
		}()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		dur := s.now().Sub(start)
		s.metrics.Status.Add(strconv.Itoa(sw.status), 1)
		s.obs.httpResponses.With(strconv.Itoa(sw.status)).Inc()
		s.metrics.ObserveLatency(dur)
		s.obs.httpLatency.ObserveExemplar(dur.Seconds(), obs.Label{Name: "trace_id", Value: tc.TraceID})
		s.logger.Info("request",
			"request_id", reqID,
			"trace_id", tc.TraceID,
			"endpoint", endpoint,
			"method", r.Method,
			"status", sw.status,
			"duration_ms", float64(dur)/float64(time.Millisecond),
		)
	})
}

// tenantKey carries the request's tenant (the X-Tenant header, leniently
// defaulted) so run records can attribute work without re-reading
// headers deep in the serving stack.
type tenantKey struct{}

func withTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

func tenantFromCtx(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	if t == "" {
		return "default"
	}
	return t
}

// StudyRequest is the wire form of a study query. Zero values mean "the
// default": all benchmarks, all Table 4 technologies, the server's
// instruction budget.
type StudyRequest struct {
	// Apps lists benchmark names from /v1/profiles; empty = all.
	Apps []string `json:"apps"`
	// Techs lists technology names (e.g. "65nm (1.0V)"); empty = all.
	// The 180nm calibration anchor always runs and is always first.
	Techs []string `json:"techs"`
	// Instructions overrides the per-application trace length.
	Instructions int64 `json:"instructions"`
	// Fidelity selects the simulation fidelity mode: "exact" (or empty,
	// the default), "adaptive", or "phase". The mode participates in the
	// request's cache key and every stage key below it, so responses at
	// different fidelities never cross-serve.
	Fidelity string `json:"fidelity,omitempty"`
	// Mechanisms lists the failure mechanisms to evaluate, by registry
	// name (GET /v1/mechanisms enumerates them); empty means the paper's
	// four (em/sm/tc/tddb). The canonicalised list participates in the
	// request's cache key and the reliability-stage key below it — but not
	// the timing/thermal keys, so different selections share thermal
	// artifacts.
	Mechanisms []string `json:"mechanisms,omitempty"`
}

// StudyMeta describes how a response was produced.
type StudyMeta struct {
	// Key is the content-addressed cache key of the request.
	Key string `json:"key"`
	// Cache is "hit" or "miss".
	Cache string `json:"cache"`
	// Coalesced reports whether this request joined another request's
	// in-flight simulation instead of starting its own.
	Coalesced bool `json:"coalesced"`
	// ComputeMS is the simulation time this request actually waited on;
	// ~0 for cache hits.
	ComputeMS float64 `json:"compute_ms"`
}

// StudyResponse is the /v1/study payload. Handlers write it from the
// memo's encoded document (writeStudyResponse) rather than from a value of
// this type; the type defines the wire form for clients and tests.
type StudyResponse struct {
	SchemaVersion int             `json:"schema_version"`
	Meta          StudyMeta       `json:"meta"`
	Study         report.Document `json:"study"`
}

// MTTFResponse is the /v1/mttf payload.
type MTTFResponse struct {
	SchemaVersion int                `json:"schema_version"`
	Meta          StudyMeta          `json:"meta"`
	MTTF          report.MTTFSummary `json:"mttf"`
}

// handleStudy serves the full study document.
func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	req, err := parseStudyRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	e, meta, err := s.study(r.Context(), req)
	if err != nil {
		s.writeStudyError(w, err)
		return
	}
	s.writeStudyResponse(w, meta, e.doc)
}

// handleMTTF serves the compact lifetime summary; it shares the study
// cache and coalescer with /v1/study, so either endpoint warms the other.
func (s *Server) handleMTTF(w http.ResponseWriter, r *http.Request) {
	req, err := parseStudyRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	e, meta, err := s.study(r.Context(), req)
	if err != nil {
		s.writeStudyError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, MTTFResponse{
		SchemaVersion: SchemaVersion, Meta: meta, MTTF: report.BuildMTTFSummary(e.res)})
}

// handleProfiles lists the registered benchmark profiles.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use GET"))
		return
	}
	type profileDoc struct {
		Name         string  `json:"name"`
		Suite        string  `json:"suite"`
		TargetIPC    float64 `json:"target_ipc"`
		TargetPowerW float64 `json:"target_power_w"`
	}
	all := s.registry.All()
	out := struct {
		SchemaVersion int          `json:"schema_version"`
		Profiles      []profileDoc `json:"profiles"`
	}{SchemaVersion: SchemaVersion, Profiles: make([]profileDoc, 0, len(all))}
	for _, p := range all {
		out.Profiles = append(out.Profiles, profileDoc{
			Name:         p.Name,
			Suite:        p.Suite.String(),
			TargetIPC:    p.TargetIPC,
			TargetPowerW: p.TargetPowerW,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// MechanismsResponse is the /v1/mechanisms payload: discovery metadata
// for every registered failure mechanism, sorted by name. (Additive
// endpoint, same schema version.)
type MechanismsResponse struct {
	SchemaVersion int                  `json:"schema_version"`
	Mechanisms    []core.MechanismInfo `json:"mechanisms"`
	// Default lists the canonical names evaluated when a request names no
	// mechanisms — the paper's four.
	Default []string `json:"default"`
}

// handleMechanisms lists the registered failure mechanisms: names,
// descriptions, tunable parameters, evaluation scope, and default-set
// membership — everything a client needs to build a StudyRequest
// mechanism selection.
func (s *Server) handleMechanisms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use GET"))
		return
	}
	s.writeJSON(w, http.StatusOK, MechanismsResponse{
		SchemaVersion: SchemaVersion,
		Mechanisms:    core.RegisteredMechanisms(),
		Default:       core.DefaultMechanismNames(),
	})
}

// healthStatus is the /healthz and /readyz payload.
type healthStatus struct {
	SchemaVersion int    `json:"schema_version"`
	Status        string `json:"status"`
	// QueueDepth and QueueHighWater report the batch-job backlog /readyz
	// keys off; zero on /healthz.
	QueueDepth     int `json:"queue_depth,omitempty"`
	QueueHighWater int `json:"queue_high_water,omitempty"`
}

// handleHealthz is pure liveness: 200 for as long as the process can
// serve HTTP at all, draining included. Restart decisions key off this;
// routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, healthStatus{SchemaVersion: SchemaVersion, Status: "ok"})
}

// handleReadyz is readiness: 503 while draining or while the batch job
// queue is beyond its high-water mark, so load balancers steer new work
// to less-loaded replicas without the process being restarted.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := healthStatus{
		SchemaVersion:  SchemaVersion,
		Status:         "ok",
		QueueDepth:     s.jobs.Depth(),
		QueueHighWater: s.cfg.ReadyHighWater,
	}
	select {
	case <-s.draining:
		st.Status = "draining"
	default:
		if st.QueueDepth > st.QueueHighWater {
			st.Status = "backlogged"
		}
	}
	if st.Status != "ok" {
		s.writeJSON(w, http.StatusServiceUnavailable, st)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleMetrics serves the metric snapshot: the JSON document by default,
// the Prometheus text exposition with ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		s.writeJSON(w, http.StatusOK, s.metricsSnapshot())
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.obs.reg.WritePrometheus(w)
	default:
		s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("unknown metrics format %q (use json or prometheus)", format))
	}
}

// handleStudyTrace serves retained study traces as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. By default
// the most recent trace is returned; ?key=<study key> selects a specific
// retained study, and ?list=1 returns the retained identities instead.
func (s *Server) handleStudyTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, errors.New("use GET"))
		return
	}
	q := r.URL.Query()
	if q.Get("list") != "" {
		s.writeJSON(w, http.StatusOK, struct {
			SchemaVersion int                `json:"schema_version"`
			Traces        []obs.TraceSummary `json:"traces"`
		}{SchemaVersion, s.traces.List()})
		return
	}
	var entry obs.TraceEntry
	var ok bool
	if key := q.Get("key"); key != "" {
		entry, ok = s.traces.ByKey(key)
	} else {
		entry, ok = s.traces.Latest()
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeBadRequest,
			errors.New("no matching study trace retained; run a study first"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Study-Key", entry.Key)
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteChromeTrace(w, entry.Spans)
}

// parseStudyRequest accepts POST application/json bodies and GET query
// parameters (?apps=a,b&techs=x,y&instructions=n).
func parseStudyRequest(r *http.Request) (StudyRequest, error) {
	var req StudyRequest
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
	default:
		return req, errors.New("use GET or POST")
	}
	return req, nil
}

// splitList parses a comma-separated query value into trimmed names.
func splitList(v string) []string {
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// resolve turns a wire request into concrete study inputs: profiles via
// the registry, technologies via the Table 4 set with the 180nm anchor
// always first, and the instruction budget clamped to the server's cap.
func (s *Server) resolve(req StudyRequest) (sim.Config, []workload.Profile, []scaling.Technology, error) {
	cfg := s.cfg.Sim
	switch {
	case req.Instructions < 0:
		return cfg, nil, nil, fmt.Errorf("instructions must be positive, got %d", req.Instructions)
	case req.Instructions == 0:
		cfg.Instructions = s.cfg.DefaultInstructions
	case req.Instructions > s.cfg.MaxInstructions:
		return cfg, nil, nil, fmt.Errorf("instructions %d exceeds the server cap %d",
			req.Instructions, s.cfg.MaxInstructions)
	default:
		cfg.Instructions = req.Instructions
	}

	// An explicit mode — "exact" included — overrides the server default;
	// an absent one inherits it.
	if req.Fidelity != "" {
		fd, err := sim.ParseFidelityMode(req.Fidelity)
		if err != nil {
			return cfg, nil, nil, err
		}
		cfg.Fidelity = fd
	}

	// Canonicalise the mechanism selection up front: unknown names fail
	// here with 400 before any simulation work, and the canonical list
	// (nil for the default set) is what every key derivation hashes.
	if len(req.Mechanisms) > 0 {
		canon, err := core.CanonicalMechanismNames(req.Mechanisms)
		if err != nil {
			return cfg, nil, nil, err
		}
		cfg.Mechanisms = canon
	}

	profiles, err := s.registry.Resolve(req.Apps)
	if err != nil {
		return cfg, nil, nil, err
	}

	base := scaling.Base()
	techs := []scaling.Technology{base}
	if len(req.Techs) == 0 {
		techs = scaling.Generations()
	} else {
		seen := map[string]bool{base.Name: true}
		for _, name := range req.Techs {
			t, err := scaling.ByName(name)
			if err != nil {
				return cfg, nil, nil, err
			}
			if seen[t.Name] {
				continue
			}
			seen[t.Name] = true
			techs = append(techs, t)
		}
	}
	return cfg, profiles, techs, nil
}

// study returns the result for a request through the memo; the flight
// leader runs the simulation under admission control and the compute
// deadline.
func (s *Server) study(ctx context.Context, req StudyRequest) (*studyEntry, StudyMeta, error) {
	cfg, profiles, techs, err := s.resolve(req)
	if err != nil {
		return nil, StudyMeta{}, &badRequestError{err}
	}
	key, err := sim.StudyKey(cfg, profiles, techs)
	if err != nil {
		return nil, StudyMeta{}, err
	}
	served := s.now()
	c := s.begin(ctx, s.studyRun(key, true, cfg, profiles, techs, nil))
	v, err := c.wait(ctx)
	if s.ledger != nil {
		rec := s.newRunRecord(ctx, "study", key, cfg, len(profiles), served, c.disp, err)
		c.fill(&rec)
		s.appendRun(rec)
	}
	if err != nil {
		return nil, StudyMeta{}, err
	}
	return v.(*studyEntry), s.studyMeta(key, c, served), nil
}

// badRequestError marks client-side input errors for status mapping.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// studyErrorStatus maps a study error to its HTTP status and envelope
// code. Shared by the blocking handlers and the stream's error events.
func (s *Server) studyErrorStatus(err error) (status int, code string, msg error) {
	var bad *badRequestError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest, CodeBadRequest, err
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests, CodeOverloaded, errors.New("server overloaded, retry later")
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeDeadlineExceeded, err
	case errors.Is(err, context.Canceled):
		// The client is gone or the server is shutting down; 503 is the
		// least-wrong answer for anyone still listening.
		return http.StatusServiceUnavailable, CodeUnavailable, err
	default:
		return http.StatusInternalServerError, CodeInternal, err
	}
}

// writeStudyError maps a study error to its HTTP status.
func (s *Server) writeStudyError(w http.ResponseWriter, err error) {
	status, code, msg := s.studyErrorStatus(err)
	if code == CodeOverloaded {
		s.writeRetryAfter(w)
	}
	s.writeError(w, status, code, msg)
}

// retryAfter computes the 429 Retry-After hint from the configured base,
// scaled by how loaded the admission queue and the batch job queue are
// and spread with ±25% jitter so one burst of shed clients does not
// return in lockstep and overload the server again. Always ≥1s.
func (s *Server) retryAfter() time.Duration {
	base := float64(s.cfg.RetryAfter)
	admLoad := float64(len(s.admission)) / float64(cap(s.admission))
	var jobLoad float64
	if st := s.jobs.Stats(); st.Capacity > 0 {
		jobLoad = float64(st.Queued) / float64(st.Capacity)
	}
	d := base * (1 + 2*admLoad + 2*jobLoad)
	d *= 0.75 + float64(0.5*rand.Float64())
	if d < float64(time.Second) {
		return time.Second
	}
	return time.Duration(d)
}

// writeRetryAfter stamps the queue-aware Retry-After header on a 429 and
// counts the shed. The header value rounds up to whole seconds.
func (s *Server) writeRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After",
		strconv.Itoa(int((s.retryAfter()+time.Second-1)/time.Second)))
	s.metrics.Shed.Add(1)
	s.obs.shed.Inc()
}

// writeJSON writes an indented JSON response.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeStudyResponse writes the StudyResponse envelope around a memo
// entry's compact document. The bytes are exactly what writeJSON gives
// for the equivalent StudyResponse value — json.Encoder marshals compactly
// and then indents — without re-encoding the document.
func (s *Server) writeStudyResponse(w http.ResponseWriter, meta StudyMeta, doc []byte) {
	bufs := envelopeBufs.Get().(*envelopeBuf)
	defer envelopeBufs.Put(bufs)
	compact, err := appendStudyEnvelope(bufs.compact[:0], studyResponseHead, meta, doc)
	bufs.compact = compact
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	bufs.indented.Reset()
	if err := json.Indent(&bufs.indented, compact, "", "  "); err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	bufs.indented.WriteByte('\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bufs.indented.Bytes())
}

// studyResponseHead opens a StudyResponse up to its meta value.
var studyResponseHead = fmt.Sprintf(`{"schema_version":%d,"meta":`, SchemaVersion)

// envelopeBuf holds one response's compact and indented forms.
type envelopeBuf struct {
	compact  []byte
	indented bytes.Buffer
}

var envelopeBufs = sync.Pool{New: func() any { return new(envelopeBuf) }}

// appendStudyEnvelope appends head (the envelope's opening through its
// "meta" name), the encoded meta, and the compact document under "study".
func appendStudyEnvelope(dst []byte, head string, meta StudyMeta, doc []byte) ([]byte, error) {
	m, err := json.Marshal(meta)
	if err != nil {
		return dst, err
	}
	dst = append(dst, head...)
	dst = append(dst, m...)
	dst = append(dst, `,"study":`...)
	dst = append(dst, doc...)
	return append(dst, '}'), nil
}

// writeError writes the stable error envelope. The request ID is read back
// from the response header instrument() set, so every call site echoes it
// without threading the request through.
func (s *Server) writeError(w http.ResponseWriter, status int, code string, err error) {
	s.writeJSON(w, status, ErrorResponse{
		SchemaVersion: SchemaVersion,
		RequestID:     w.Header().Get("X-Request-ID"),
		Error:         ErrorBody{Code: code, Message: err.Error()},
	})
}
