package server

import (
	"expvar"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/store"
)

// latencyBoundsMS are the upper bounds, in milliseconds, of the JSON
// latency_ms histogram; requests above the last bound land in its
// overflow bucket. Each is a bound of obs.DurationBuckets, so every JSON
// bucket is a difference of ramp_http_request_duration_seconds' cumulative
// counts.
var latencyBoundsMS = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 30000}

// metricsSnapshot assembles the JSON /metrics document. Every count in it
// is read from the serverObs instruments or the stat source the
// Prometheus view bridges, so the two views cannot disagree. The jobs
// block marshals jobs.Stats (queued, running, live, capacity, *_total
// counters); ratio fields are computed here so readers need no
// client-side arithmetic.
func (s *Server) metricsSnapshot() map[string]any {
	o := s.obs
	cs := s.cache.Stats()
	ratio := 0.0
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		ratio = float64(cs.Hits) / float64(lookups)
	}
	ps := sched.Default.Stats()
	ss := s.stageCache.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := map[string]any{
		"schema_version":    SchemaVersion,
		"requests_total":    countsBy(o.httpRequests),
		"status_total":      countsBy(o.httpResponses),
		"latency_ms":        latencySnapshot(o.httpLatency),
		"coalesced_total":   o.coalesced.Value(),
		"shed_total":        o.shed.Value(),
		"inflight_http":     o.inflight.Value(),
		"studies_total":     o.studies.Value(),
		"streams_total":     o.streams.Value(),
		"mc_studies_total":  o.mcStudies.Value(),
		"mc_replicas_total": o.mcReplicas.Value(),
		"batches_total":     o.batches.Value(),
		"cache": map[string]any{
			"entries":   cs.Entries,
			"hits":      cs.Hits,
			"misses":    cs.Misses,
			"evicted":   cs.Evicted,
			"expired":   cs.Expired,
			"hit_ratio": ratio,
		},
		"sched": map[string]any{
			"queue_depth": ps.QueueDepth,
			"in_flight":   ps.InFlight,
			"completed":   ps.Completed,
			"failed":      ps.Failed,
		},
		"stage_cache": map[string]any{
			"timing":  storeSnapshot(ss.Timing),
			"thermal": storeSnapshot(ss.Thermal),
			"fit":     storeSnapshot(ss.FIT),
		},
		"admission_queue_depth": len(s.admission),
		"admission_capacity":    cap(s.admission),
		"jobs":                  s.jobs.Stats(),
		"runtime": map[string]any{
			"goroutines":             runtime.NumGoroutine(),
			"heap_bytes":             ms.HeapAlloc,
			"gc_pause_total_seconds": float64(ms.PauseTotalNs) / 1e9,
			"num_gc":                 ms.NumGC,
		},
	}
	if s.ledger != nil {
		out["ledger"] = s.ledger.Stats()
	}
	return out
}

// countsBy flattens a one-label counter family to a map from label value
// to count.
func countsBy(v *obs.CounterVec) map[string]uint64 {
	out := map[string]uint64{}
	v.Each(func(values []string, n uint64) { out[values[0]] = n })
	return out
}

// latencySnapshot derives the JSON latency_ms buckets from the request
// histogram: "le_<X>ms" counts the requests above the previous bound and
// at most X ms, "overflow" those above the last bound. Empty buckets are
// left out.
func latencySnapshot(h *obs.Histogram) map[string]uint64 {
	cum, _, _ := h.Snapshot()
	bounds := h.Bounds()
	out := map[string]uint64{}
	var prev uint64
	for _, ms := range latencyBoundsMS {
		c := cum[sort.SearchFloat64s(bounds, ms/1000)]
		if c > prev {
			out[fmt.Sprintf("le_%gms", ms)] = c - prev
		}
		prev = c
	}
	if last := cum[len(cum)-1]; last > prev {
		out["overflow"] = last - prev
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
