package server

import (
	"expvar"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/store"
)

// latencyBucketsMS are the upper bounds of the request-latency histogram
// in milliseconds; requests above the last bound land in the overflow
// bucket.
var latencyBucketsMS = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 30000}

// Metrics aggregates the server's observability counters on expvar types.
// The vars are intentionally not published to the global expvar registry
// here — expvar.Publish panics on duplicate names, which would forbid the
// multiple servers tests construct. Publish registers the whole set under
// one name when a process wants the standard /debug/vars integration.
type Metrics struct {
	// Requests counts handled requests per endpoint.
	Requests *expvar.Map
	// Status counts responses per HTTP status code.
	Status *expvar.Map
	// Latency is the request-latency histogram ("le_<bound>ms" buckets
	// plus "overflow").
	Latency *expvar.Map
	// Coalesced counts requests that joined an existing identical flight
	// instead of starting their own simulation.
	Coalesced expvar.Int
	// Shed counts requests rejected with 429 by the admission queue.
	Shed expvar.Int
	// InFlightHTTP gauges currently executing HTTP requests.
	InFlightHTTP expvar.Int
	// Studies counts simulations actually started on the compute pool.
	Studies expvar.Int
	// Streams counts /v1/study/stream responses that began streaming
	// (cache replays included; admission rejections excluded).
	Streams expvar.Int
	// MCStudies counts /v1/study/mc responses that began streaming
	// (cache replays included; admission rejections excluded).
	MCStudies expvar.Int
	// MCReplicas counts Monte Carlo lifetime replicas drawn by completed
	// /v1/study/mc computations (cache replays excluded).
	MCReplicas expvar.Int
	// Batches counts accepted POST /v1/batch submissions.
	Batches expvar.Int
}

// NewMetrics returns a zeroed metric set.
func NewMetrics() *Metrics {
	return &Metrics{
		Requests: new(expvar.Map).Init(),
		Status:   new(expvar.Map).Init(),
		Latency:  new(expvar.Map).Init(),
	}
}

// ObserveLatency adds one request to the latency histogram.
func (m *Metrics) ObserveLatency(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	for _, b := range latencyBucketsMS {
		if ms <= b {
			m.Latency.Add(fmt.Sprintf("le_%gms", b), 1)
			return
		}
	}
	m.Latency.Add("overflow", 1)
}

// Snapshot flattens the metrics — plus the cache, compute-pool, and
// stage-cache views — to a JSON-marshalable map, the /metrics payload.
// ratio fields are computed at snapshot time so readers need no
// client-side arithmetic.
func (m *Metrics) Snapshot(cache *Cache, stats sched.Stats, stage *sim.StageCache) map[string]any {
	out := map[string]any{
		"schema_version":    SchemaVersion,
		"requests_total":    mapSnapshot(m.Requests),
		"status_total":      mapSnapshot(m.Status),
		"latency_ms":        mapSnapshot(m.Latency),
		"coalesced_total":   m.Coalesced.Value(),
		"shed_total":        m.Shed.Value(),
		"inflight_http":     m.InFlightHTTP.Value(),
		"studies_total":     m.Studies.Value(),
		"streams_total":     m.Streams.Value(),
		"mc_studies_total":  m.MCStudies.Value(),
		"mc_replicas_total": m.MCReplicas.Value(),
		"batches_total":     m.Batches.Value(),
	}
	if cache != nil {
		cs := cache.Stats()
		ratio := 0.0
		if lookups := cs.Hits + cs.Misses; lookups > 0 {
			ratio = float64(cs.Hits) / float64(lookups)
		}
		out["cache"] = map[string]any{
			"entries":   cs.Entries,
			"hits":      cs.Hits,
			"misses":    cs.Misses,
			"evicted":   cs.Evicted,
			"expired":   cs.Expired,
			"hit_ratio": ratio,
		}
	}
	if stats != nil {
		// Prefer a consistent point-in-time snapshot when the source offers
		// one (sched.Counters does): four independent loads can otherwise
		// observe a task as simultaneously queued and in flight.
		var sn sched.CountersSnapshot
		if src, ok := stats.(interface{ Snapshot() sched.CountersSnapshot }); ok {
			sn = src.Snapshot()
		} else {
			sn = sched.CountersSnapshot{
				QueueDepth: stats.QueueDepth(),
				InFlight:   stats.InFlight(),
				Completed:  stats.Completed(),
				Failed:     stats.Failed(),
			}
		}
		out["sched"] = map[string]any{
			"queue_depth": sn.QueueDepth,
			"in_flight":   sn.InFlight,
			"completed":   sn.Completed,
			"failed":      sn.Failed,
		}
	}
	if stage != nil {
		ss := stage.Stats()
		out["stage_cache"] = map[string]any{
			"timing":  storeSnapshot(ss.Timing),
			"thermal": storeSnapshot(ss.Thermal),
			"fit":     storeSnapshot(ss.FIT),
		}
	}
	return out
}

// metricsSnapshot assembles the full /metrics JSON document: the expvar
// counters plus the admission-queue and batch-job gauges only the server
// can see. The jobs block marshals jobs.Stats (queued, running, live,
// capacity, *_total counters).
func (s *Server) metricsSnapshot() map[string]any {
	out := s.metrics.Snapshot(s.cache, s.schedStats, s.stageCache)
	out["admission_queue_depth"] = len(s.admission)
	out["admission_capacity"] = cap(s.admission)
	out["jobs"] = s.jobs.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["runtime"] = map[string]any{
		"goroutines":             runtime.NumGoroutine(),
		"heap_bytes":             ms.HeapAlloc,
		"gc_pause_total_seconds": float64(ms.PauseTotalNs) / 1e9,
		"num_gc":                 ms.NumGC,
	}
	if s.ledger != nil {
		out["ledger"] = s.ledger.Stats()
	}
	return out
}

// storeSnapshot flattens one stage store's counters.
func storeSnapshot(s store.Stats) map[string]any {
	return map[string]any{
		"entries":       s.Entries,
		"mem_hits":      s.MemHits,
		"disk_hits":     s.DiskHits,
		"misses":        s.Misses,
		"joined":        s.Joined,
		"puts":          s.Puts,
		"evicted":       s.Evicted,
		"disk_failures": s.DiskFailures,
	}
}

// mapSnapshot copies an expvar.Map into a plain map with sorted iteration
// (expvar.Map.Do already visits keys in sorted order).
func mapSnapshot(m *expvar.Map) map[string]int64 {
	out := map[string]int64{}
	m.Do(func(kv expvar.KeyValue) {
		if v, ok := kv.Value.(*expvar.Int); ok {
			out[kv.Key] = v.Value()
		}
	})
	return out
}

// publishedServers routes each published expvar name to the server that
// most recently claimed it. expvar.Publish panics on duplicate names and
// offers no unpublish, so the Func registered once per name reads through
// this indirection instead of closing over a single Server.
var (
	publishMu        sync.Mutex
	publishedServers = map[string]*atomic.Pointer[Server]{}
)

// Publish registers the server's metric snapshot under name in the global
// expvar registry (visible at /debug/vars). Safe to call again for the
// same name — e.g. a server restarted within one process — in which case
// the newest server's metrics are served.
func (s *Server) Publish(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	p, ok := publishedServers[name]
	if !ok {
		p = new(atomic.Pointer[Server])
		publishedServers[name] = p
		expvar.Publish(name, expvar.Func(func() any {
			srv := p.Load()
			if srv == nil {
				return nil
			}
			return srv.metricsSnapshot()
		}))
	}
	p.Store(s)
}

// sortedBucketNames returns the histogram bucket labels in bound order,
// for deterministic rendering in tests and docs.
func sortedBucketNames() []string {
	names := make([]string, 0, len(latencyBucketsMS)+1)
	for _, b := range latencyBucketsMS {
		names = append(names, fmt.Sprintf("le_%gms", b))
	}
	sort.Strings(names)
	return append(names, "overflow")
}
