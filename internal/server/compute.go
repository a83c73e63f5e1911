package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/report"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/store"
	"github.com/ramp-sim/ramp/internal/workload"
)

// The one compute path. Every endpoint — /v1/study, /v1/mttf,
// /v1/study/stream, /v1/study/mc and batch jobs — names its answer by a
// content address and asks the result memo (Cache, a store.Store) for it
// through begin. A hit is served at once; a miss leads a detached flight
// that runs the computation once for every identical request that joins
// it meanwhile.

// run is one computation served through the memo.
type run struct {
	// label names the computation in logs ("study", "mc").
	label string
	key   string
	// admit makes the flight's leader hold an admission slot while it
	// computes, shedding with errOverloaded when none is free.
	admit bool
	// compute produces the value under the flight context.
	compute func(ctx context.Context) (any, error)
}

// call is one request's place on a memo key: a finished value (a hit) or
// a seat in the key's flight.
type call struct {
	cache  *Cache
	disp   string // obs.ResultHit, obs.ResultMiss or obs.ResultCoalesced
	val    any
	flight *store.Flight[any]
	// stats aggregates the flight's spans for the leader's run record;
	// nil for hits, followers, and when the ledger is off.
	stats atomic.Pointer[obs.RunStats]
}

// flightKey marks a flight context. Its value is the flight's RunStats
// (nil when the ledger is off), so a memo read made inside a computation
// — an MC leader reading its study — is billed to the enclosing run: it
// counts no lookup of its own and adds its costs to the enclosing stats.
type flightKey struct{}

// begin looks r.key up in the memo and, on a miss, starts r's computation
// in a flight detached from the request: it carries ctx's request ID and
// traceparent, the compute deadline, and a tracer feeding the stage
// metrics, a trace-ring entry and (ledger on) the run's RunStats. A
// follower is counted as coalesced the moment it joins.
func (s *Server) begin(ctx context.Context, r run) *call {
	enclosing, nested := ctx.Value(flightKey{}).(*obs.RunStats)
	reqID := obs.RequestIDFrom(ctx)
	tc := obs.TraceContextFrom(ctx)
	c := &call{cache: s.cache}
	var out string
	c.val, c.flight, out = s.cache.Join(s.baseCtx, r.key, !nested, func(fctx context.Context) (any, error) {
		if r.admit {
			select {
			case s.admission <- struct{}{}:
				defer func() { <-s.admission }()
			default:
				return nil, errOverloaded
			}
		}
		if s.cfg.ComputeTimeout > 0 {
			var cancel context.CancelFunc
			fctx, cancel = context.WithTimeout(fctx, s.cfg.ComputeTimeout)
			defer cancel()
		}
		start := s.now()
		s.logger.Info(r.label+" start", "request_id", reqID, "key", r.key)
		collector := obs.NewCollector(s.cfg.TraceSpanLimit)
		sinks := []obs.SpanSink{s.obs, collector}
		stats := enclosing
		if stats == nil && s.ledger != nil {
			stats = obs.NewRunStats()
		}
		if stats != nil {
			c.stats.Store(stats)
			sinks = append(sinks, stats)
		}
		fctx = obs.WithRequestID(fctx, reqID)
		fctx = obs.WithTraceContext(fctx, tc)
		fctx = obs.WithTracer(fctx, obs.NewTracer(obs.MultiSink(sinks...)))
		fctx = context.WithValue(fctx, flightKey{}, stats)
		v, err := r.compute(fctx)
		if err != nil {
			s.logger.Warn(r.label+" failed", "request_id", reqID, "key", r.key, "error", err.Error())
			return nil, err
		}
		s.traces.Add(obs.TraceEntry{
			Key: r.key, RequestID: reqID, CapturedAt: s.now(), Spans: collector.Spans()})
		s.logger.Info(r.label+" done", "request_id", reqID, "key", r.key,
			"compute_ms", float64(s.now().Sub(start))/float64(time.Millisecond))
		return v, nil
	})
	switch out {
	case store.OutcomeHitMem:
		c.disp = obs.ResultHit
	case store.OutcomeJoined:
		c.disp = obs.ResultCoalesced
		s.obs.coalesced.Inc()
	default:
		c.disp = obs.ResultMiss
	}
	return c
}

// wait returns the call's value once its flight ends, or ctx's error if
// ctx ends first.
func (c *call) wait(ctx context.Context) (any, error) {
	if c.flight == nil {
		return c.val, nil
	}
	return c.cache.Wait(ctx, c.flight)
}

// fill adds the leader's stage costs to rec.
func (c *call) fill(rec *obs.RunRecord) {
	if st := c.stats.Load(); st != nil {
		st.Fill(rec)
	}
}

// studyMeta describes how the call was served, timing compute from
// served.
func (s *Server) studyMeta(key string, c *call, served time.Time) StudyMeta {
	if c.disp == obs.ResultHit {
		return StudyMeta{Key: key, Cache: "hit"}
	}
	return StudyMeta{Key: key, Cache: "miss", Coalesced: c.disp == obs.ResultCoalesced,
		ComputeMS: float64(s.now().Sub(served)) / float64(time.Millisecond)}
}

// studyEntry is a study's memo value: the result, and the compact JSON of
// its report document, encoded once when the flight completes so that no
// hit re-encodes it. Only the compact form is kept; responses indent it
// on the way out.
type studyEntry struct {
	res *sim.StudyResult
	doc []byte
}

// studyRun computes a deterministic study; onApp, when non-nil, receives
// the leader's cells as they complete.
func (s *Server) studyRun(key string, admit bool, cfg sim.Config, profiles []workload.Profile,
	techs []scaling.Technology, onApp func(sim.AppEvent)) run {
	return run{label: "study", key: key, admit: admit, compute: func(ctx context.Context) (any, error) {
		s.obs.studies.Inc()
		res, err := s.runStudy(ctx, cfg, profiles, techs, sim.StudyOptions{
			Parallelism: s.cfg.Parallelism,
			Cache:       s.stageCache,
			OnApp:       onApp,
		})
		if err != nil {
			return nil, err
		}
		doc, err := json.Marshal(report.BuildDocument(res))
		if err != nil {
			return nil, err
		}
		return &studyEntry{res: res, doc: doc}, nil
	}}
}

// mcRun computes a Monte Carlo study: the leader reads the deterministic
// study through the memo under studyKey — coalescing with any request for
// it — then samples. onApp and onEvent, when non-nil, receive the study's
// cells (if this flight leads it too) and the sampler's events.
func (s *Server) mcRun(key, studyKey string, admit bool, cfg sim.Config, profiles []workload.Profile,
	techs []scaling.Technology, mcfg sim.MCConfig, onApp func(sim.AppEvent),
	onEvent func(sim.MCEvent)) run {
	return run{label: "mc", key: key, admit: admit, compute: func(ctx context.Context) (any, error) {
		base, err := s.begin(ctx, s.studyRun(studyKey, false, cfg, profiles, techs, onApp)).wait(ctx)
		if err != nil {
			return nil, err
		}
		res, err := sim.MonteCarloStudy(ctx, base.(*studyEntry).res, mcfg, sim.MCOptions{
			Parallelism: s.cfg.Parallelism,
			OnEvent:     onEvent,
		})
		if err != nil {
			return nil, err
		}
		s.obs.mcReplicas.Add(uint64(res.TotalReplicas))
		return res, nil
	}}
}

// serveStream answers an NDJSON request through the memo. open is called
// once, when streaming begins, and returns the opening event for the
// given cache value ("hit" or "miss"). A hit opens at once. A leader opens
// once its flight holds an admission slot, then relays the live events
// its computation publishes on events. A follower opens at once and sends
// heartbeats until the flight ends. The caller writes the closing events:
// a hit or follower replays the result's cells first. A request that
// cannot stream — no flusher, or a shed flight (429) — is answered with
// an error envelope, and serveStream returns a nil writer.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, rn run,
	events <-chan any, open func(cache string) any) (*streamWriter, *call, any, error) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		err := errors.New("streaming unsupported by connection")
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return nil, nil, nil, err
	}
	live := make(chan struct{})
	compute := rn.compute
	rn.compute = func(ctx context.Context) (any, error) {
		close(live)
		return compute(ctx)
	}
	c := s.begin(r.Context(), rn)
	var v any
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err = c.wait(r.Context())
	}()
	if c.disp == obs.ResultMiss {
		select {
		case <-live:
		case <-done:
			select {
			case <-live:
			default:
				s.writeStudyError(w, err)
				return nil, c, nil, err
			}
		}
	}
	cache := "miss"
	if c.disp == obs.ResultHit {
		cache = "hit"
	}
	sw := s.newStreamWriter(w, flusher)
	sw.send(open(cache))
	s.pump(sw, events, done)
	return sw, c, v, err
}

// pump relays events, plus a heartbeat every StreamHeartbeat, until done
// closes; then it drains what the computation published before it ended.
func (s *Server) pump(sw *streamWriter, events <-chan any, done <-chan struct{}) {
	heartbeat := time.NewTicker(s.cfg.StreamHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev := <-events:
			sw.send(ev)
		case <-heartbeat.C:
			sw.send(streamHeartbeatEvent{"heartbeat"})
		case <-done:
			for {
				select {
				case ev := <-events:
					sw.send(ev)
				default:
					return
				}
			}
		}
	}
}

// publisher returns a send onto a leader's live-event buffer that gives up
// once the leader's request is gone, so a flight outliving its leader's
// connection never blocks on a full buffer.
func publisher(r *http.Request, events chan<- any) func(any) {
	gone := r.Context().Done()
	return func(ev any) {
		select {
		case events <- ev:
		case <-gone:
		}
	}
}
