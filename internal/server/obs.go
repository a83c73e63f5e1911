package server

import (
	"runtime"
	"strconv"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/store"
)

// serverObs is the server's obs.Registry instrument set: everything
// /metrics?format=prometheus exposes, and the source of every count the
// JSON /metrics document reports. Push-style instruments (counters,
// histograms) are updated on the hot paths or fed by spans through
// SpanEnded; pre-existing stat sources (result cache, compute pool, stage
// cache) are bridged at scrape time so their state is never double-counted.
type serverObs struct {
	reg *obs.Registry

	// HTTP surface.
	httpRequests  *obs.CounterVec // ramp_http_requests_total{endpoint}
	httpResponses *obs.CounterVec // ramp_http_responses_total{code}
	httpLatency   *obs.Histogram  // ramp_http_request_duration_seconds
	inflight      *obs.Gauge      // ramp_http_inflight_requests
	streamEvents  *obs.CounterVec // ramp_stream_events_total{event}

	// Study admission and coalescing.
	coalesced *obs.Counter // ramp_coalesced_requests_total
	shed      *obs.Counter // ramp_shed_requests_total
	studies   *obs.Counter // ramp_studies_started_total
	streams   *obs.Counter // ramp_streams_started_total

	// Monte Carlo studies.
	mcStudies  *obs.Counter // ramp_mc_studies_total
	mcReplicas *obs.Counter // ramp_mc_replicas_total

	// Batch job queue.
	batches    *obs.Counter      // ramp_batches_submitted_total
	jobRuns    *obs.CounterVec   // ramp_job_runs_total{kind,outcome}
	jobLatency *obs.HistogramVec // ramp_job_duration_seconds{kind}

	// Span-fed histograms (see SpanEnded): pipeline-stage latency
	// (timing|thermal|fit), compute-pool slot hold and slot wait.
	stageLatency *obs.HistogramVec // ramp_stage_duration_seconds{stage}
	schedLatency *obs.HistogramVec // ramp_sched_task_duration_seconds{stage}
	queueWait    *obs.HistogramVec // ramp_sched_queue_wait_seconds{stage}
	stages       *obs.MetricsSink  // feeds stageLatency
}

// spanJobRun names the span wrapping one batch-job execution.
const spanJobRun = "jobs.run"

// SpanEnded implements obs.SpanSink. serverObs is the one sink through
// which spans feed the server's instruments; it is part of every flight's
// tracer fan-out and is the batch executor's tracer sink. A job's pipeline
// stages run in a memo flight, whose own tracer delivers them here.
func (o *serverObs) SpanEnded(sp *obs.Span) {
	switch sp.Name {
	case obs.SpanSlot:
		var stage string
		var wait time.Duration
		for _, a := range sp.Attrs() {
			switch a.Key {
			case "stage":
				stage = a.Value
			case "wait_ns":
				ns, _ := strconv.ParseInt(a.Value, 10, 64)
				wait = time.Duration(ns)
			}
		}
		o.schedLatency.With(stage).Observe(sp.Duration().Seconds())
		o.queueWait.With(stage).Observe(wait.Seconds())
	case spanJobRun:
		kind := "unknown"
		for _, a := range sp.Attrs() {
			if a.Key == "kind" {
				kind = a.Value
			}
		}
		o.jobLatency.With(kind).Observe(sp.Duration().Seconds())
	default:
		o.stages.SpanEnded(sp)
	}
}

// newServerObs registers the push-style instruments on a fresh registry.
// Scrape-time bridges over the server's stat sources are attached later by
// bindServer, once those sources exist.
func newServerObs() *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:           reg,
		httpRequests:  reg.CounterVec("ramp_http_requests_total", "HTTP requests handled, by endpoint.", "endpoint"),
		httpResponses: reg.CounterVec("ramp_http_responses_total", "HTTP responses sent, by status code.", "code"),
		httpLatency:   reg.Histogram("ramp_http_request_duration_seconds", "HTTP request latency in seconds.", nil),
		inflight:      reg.Gauge("ramp_http_inflight_requests", "HTTP requests currently executing."),
		streamEvents:  reg.CounterVec("ramp_stream_events_total", "NDJSON stream events sent, by event type.", "event"),
		coalesced:     reg.Counter("ramp_coalesced_requests_total", "Requests that joined an identical in-flight study."),
		shed:          reg.Counter("ramp_shed_requests_total", "Requests shed with 429 by the admission queue."),
		studies:       reg.Counter("ramp_studies_started_total", "Studies started on the compute pool."),
		streams:       reg.Counter("ramp_streams_started_total", "NDJSON study streams that began streaming."),
		mcStudies:     reg.Counter("ramp_mc_studies_total", "Monte Carlo study streams that began streaming."),
		mcReplicas:    reg.Counter("ramp_mc_replicas_total", "Monte Carlo lifetime replicas drawn by completed studies."),
		batches:       reg.Counter("ramp_batches_submitted_total", "Batch submissions accepted by POST /v1/batch."),
		jobRuns: reg.CounterVec("ramp_job_runs_total",
			"Batch job executions finished, by kind and outcome.", "kind", "outcome"),
		jobLatency: reg.HistogramVec("ramp_job_duration_seconds",
			"Batch job execution latency in seconds, by kind.", nil, "kind"),
		stageLatency: reg.HistogramVec("ramp_stage_duration_seconds",
			"Simulation pipeline stage latency in seconds, by stage (timing|thermal|fit).", nil, "stage"),
		schedLatency: reg.HistogramVec("ramp_sched_task_duration_seconds",
			"Time compute-pool tasks held their slot in seconds, by task stage.", nil, "stage"),
		queueWait: reg.HistogramVec("ramp_sched_queue_wait_seconds",
			"Time compute-pool tasks spent awaiting a slot in seconds, by task stage.", nil, "stage"),
	}
	o.stages = obs.NewMetricsSink(o.stageLatency)
	return o
}

// stageCacheOps maps each ramp_stage_cache_ops_total{op,outcome} series to
// the store.Stats count it reads.
var stageCacheOps = []struct {
	op, outcome string
	count       func(store.Stats) int64
}{
	{"get", store.OutcomeHitMem, func(s store.Stats) int64 { return s.MemHits }},
	{"get", store.OutcomeHitDisk, func(s store.Stats) int64 { return s.DiskHits }},
	{"get", store.OutcomeMiss, func(s store.Stats) int64 { return s.Misses }},
	{"get", store.OutcomeJoined, func(s store.Stats) int64 { return s.Joined }},
	{"put", "ok", func(s store.Stats) int64 { return s.Puts }},
	{"evict", "ok", func(s store.Stats) int64 { return s.Evicted }},
	{"spill", "ok", func(s store.Stats) int64 { return s.Spills }},
	{"spill", "error", func(s store.Stats) int64 { return s.SpillFailures }},
}

// stageStats picks one stage's store counters out of a stage-cache
// snapshot.
func stageStats(ss sim.StageCacheStats, stage string) store.Stats {
	switch stage {
	case "timing":
		return ss.Timing
	case "thermal":
		return ss.Thermal
	default:
		return ss.FIT
	}
}

// bindServer attaches the scrape-time bridges over the server's live stat
// sources. Each bridge reads one consistent per-source snapshot at
// exposition; nothing is sampled into intermediate state.
func (o *serverObs) bindServer(s *Server) {
	reg := o.reg
	reg.GaugeFunc("ramp_sched_queue_depth", "Compute-pool slots awaited.", nil,
		func() float64 { return float64(sched.Default.Stats().QueueDepth) })
	reg.GaugeFunc("ramp_sched_inflight_tasks", "Compute-pool slots held.", nil,
		func() float64 { return float64(sched.Default.Stats().InFlight) })
	reg.CounterFunc("ramp_sched_tasks_completed_total", "Compute-pool tasks finished without error.", nil,
		func() float64 { return float64(sched.Default.Stats().Completed) })
	reg.CounterFunc("ramp_sched_tasks_failed_total", "Compute-pool tasks finished with an error.", nil,
		func() float64 { return float64(sched.Default.Stats().Failed) })

	reg.GaugeFunc("ramp_result_cache_entries", "Resident whole-study results.", nil,
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.CounterFunc("ramp_result_cache_hits_total", "Whole-study cache hits.", nil,
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("ramp_result_cache_misses_total", "Whole-study cache misses.", nil,
		func() float64 { return float64(s.cache.Stats().Misses) })

	for _, stage := range []string{"timing", "thermal", "fit"} {
		reg.GaugeFunc("ramp_stage_cache_entries", "Resident stage-cache artifacts, by stage.",
			[]obs.Label{{Name: "stage", Value: stage}},
			func() float64 { return float64(stageStats(s.stageCache.Stats(), stage).Entries) })
		for _, c := range stageCacheOps {
			reg.CounterFunc("ramp_stage_cache_ops_total", "Stage-cache operations, by stage, operation, and outcome.",
				[]obs.Label{{Name: "stage", Value: stage}, {Name: "op", Value: c.op}, {Name: "outcome", Value: c.outcome}},
				func() float64 { return float64(c.count(stageStats(s.stageCache.Stats(), stage))) })
		}
	}

	reg.GaugeFunc("ramp_study_traces_retained", "Study traces retained for /v1/study/trace.", nil,
		func() float64 { return float64(s.traces.Len()) })

	// Go runtime health: cheap enough to read at scrape time, invaluable
	// when a leak or GC stall is the thing being diagnosed.
	reg.GaugeFunc("ramp_go_goroutines", "Goroutines currently live in the process.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("ramp_go_heap_bytes", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).", nil,
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.CounterFunc("ramp_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", nil,
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})

	if s.ledger != nil {
		reg.CounterFunc("ramp_runs_recorded_total", "Run records appended to the cost ledger.", nil,
			func() float64 { return float64(s.ledger.Stats().Appended) })
		reg.GaugeFunc("ramp_ledger_retained_runs", "Run records currently retained in the ledger ring.", nil,
			func() float64 { return float64(s.ledger.Stats().Retained) })
		reg.CounterFunc("ramp_ledger_dropped_events_total", "Ledger tail events dropped on slow subscribers.", nil,
			func() float64 { return float64(s.ledger.Stats().Dropped) })
	}

	reg.GaugeFunc("ramp_admission_queue_depth", "Interactive admission slots currently held.", nil,
		func() float64 { return float64(len(s.admission)) })
	reg.GaugeFunc("ramp_jobs_queued", "Batch jobs admitted and waiting for a worker.", nil,
		func() float64 { return float64(s.jobs.Stats().Queued) })
	reg.GaugeFunc("ramp_jobs_running", "Batch jobs currently executing.", nil,
		func() float64 { return float64(s.jobs.Stats().Running) })
	reg.GaugeFunc("ramp_jobs_done", "Batch jobs finished successfully since start.", nil,
		func() float64 { return float64(s.jobs.Stats().Done) })
	reg.GaugeFunc("ramp_jobs_failed", "Batch jobs failed permanently since start.", nil,
		func() float64 { return float64(s.jobs.Stats().Failed) })
}
