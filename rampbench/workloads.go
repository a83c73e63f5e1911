package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/jobs"
	"github.com/ramp-sim/ramp/internal/server"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// workloadDef is one named traffic mix. Its inputs are a pure function of
// (seed, scale): rampd only ever sees the generated requests.
type workloadDef struct {
	name string
	why  string
	// replayOps is how many leading operations the traced run replays in
	// process (K in the README).
	replayOps int
	// cacheDir runs rampd with -cache-dir, so stage artifacts spill to disk.
	cacheDir bool
	// rate is at most the workload's operations per second on the
	// reference host at the commit that defined the benchmark, in the
	// slowest state the host was seen in, so a run's fixed operation count
	// (rate × seconds) fits its nominal time there. A faster commit or a
	// quieter host does the same work sooner.
	rate float64
	new  func(seed int64, scale float64) workloadRun
}

// workloadRun is one seeded instance of a workload.
type workloadRun interface {
	// setup pre-warms a freshly started server.
	setup(ctx context.Context, t *target) error
	// round runs the next ops operations of the sequence, recording each
	// into rec; it stops early, leaving the rest undone, once the deadline
	// passes.
	round(ctx context.Context, t *target, ops int, deadline time.Time, rec *recorder)
	// verify runs the checks deferred until after the measured rounds;
	// wrong answers are counted into rec.
	verify(ctx context.Context, t *target, rec *recorder) error
	// probe is the representative study the traced run takes apart.
	probe() server.StudyRequest
}

var workloads = []workloadDef{
	{
		name:      "cold-exact",
		why:       "every 2-app exact study key is new, so generator and timing-core changes show and cache or serving changes do not",
		replayOps: 4,
		rate:      6,
		new: func(seed int64, scale float64) workloadRun {
			return &coldExact{seed: seed, budget: scaled(300_000, scale), warmup: scaled(warmupBudget, scale)}
		},
	},
	{
		name:      "cold-phase-stream",
		why:       "4-app phase-fidelity NDJSON streams, so sampler, SkipWarm and streaming changes show apart from core changes",
		replayOps: 2,
		rate:      5.4,
		new: func(seed int64, scale float64) workloadRun {
			return newColdPhaseStream(seed, scale)
		},
	},
	{
		name:      "warm-hits",
		why:       "Zipf hits on 48 pre-warmed keys, open and closed loop, so admission, result cache and encoding show and simulation does not",
		replayOps: 200,
		rate:      0.45,
		new: func(seed int64, scale float64) workloadRun {
			return newWarmHits(seed, scale)
		},
	},
	{
		name:      "sweep-batch",
		why:       "deduplicated batches of mechanism-ablation and Monte Carlo jobs on warm timing and thermal caches, so jobs, store writes and FIT show",
		replayOps: 4,
		cacheDir:  true,
		rate:      5.1,
		new: func(seed int64, scale float64) workloadRun {
			return newSweepBatch(seed, scale)
		},
	},
}

// opsPerRound is the operation count of one of the run's rounds.
func (w workloadDef) opsPerRound(seconds float64) int {
	return max(1, int(math.Round(w.rate*seconds/rounds)))
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scaled multiplies an instruction budget by scale, keeping it usable.
func scaled(n int64, scale float64) int64 {
	v := int64(math.Round(float64(n) * scale))
	if v < 5_000 {
		v = 5_000
	}
	return v
}

// scaledCount multiplies an operation count by scale, keeping at least min.
func scaledCount(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

// rng returns a generator keyed by the workload seed and a stream label,
// so each input stream is reproducible on its own.
func rng(seed int64, label string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, i)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// appNames lists the Table 3 benchmarks in registry order.
func appNames() []string { return workload.DefaultRegistry().Names() }

// pick returns the names at the given indices.
func pick(names []string, idx []int) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = names[j]
	}
	return out
}

// recorder accumulates one workload's operations. Safe for concurrent use.
type recorder struct {
	mu         sync.Mutex
	lat        []float64 // ms per timed operation; +Inf when it failed
	attempted  int
	failed     int           // failed, refused, or wrong
	closedOps  int           // warm-hits' closed-loop requests
	closedWall time.Duration // and the time they took
	firstEvent []float64     // ms to the first app event of a stream
	late       []float64     // ms an open-loop send started after it was due
	logf       func(string, ...any)
	logged     int
}

// add records one operation; timed operations contribute a latency
// sample, and a failure counts as +Inf latency.
func (r *recorder) add(latMS float64, err error, timed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		latMS = math.Inf(1)
		if r.logged < 5 {
			r.logged++
			r.logf("operation failed: %v", err)
		}
	}
	if timed {
		r.lat = append(r.lat, latMS)
	}
}

// wrongAnswer counts an answer found wrong after the fact.
func (r *recorder) wrongAnswer(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	r.logf("wrong answer: "+format, args...)
}

// fail counts a run-level failure, such as a round stopped at its deadline.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	r.logf(format, args...)
}

// addClosed counts ops closed-loop operations that took wall in total.
func (r *recorder) addClosed(ops int, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closedOps += ops
	r.closedWall += wall
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs ops operations back to back from one client, or fewer
// if the deadline passes, timing each; op receives the operation index.
func closedLoop(ctx context.Context, ops int, deadline time.Time, next *int, rec *recorder,
	op func(ctx context.Context, k int) error) {
	for n := 0; n < ops && time.Now().Before(deadline) && ctx.Err() == nil; n++ {
		t0 := time.Now()
		err := op(ctx, *next)
		rec.add(ms(time.Since(t0)), err, true)
		*next++
	}
}

// ---- cold-exact --------------------------------------------------------

// coldExact posts 2-app exact studies whose budgets never repeat. Each
// cycle of 120 requests covers every pair of the sixteen applications once,
// in a seeded order, so every seed times the same mix of pairs.
type coldExact struct {
	seed   int64
	budget int64
	warmup int64 // set-up request budget
	next   int
	checks []deferredCheck
}

func (w *coldExact) reqAt(k int) server.StudyRequest {
	names := appNames()
	var pairs [][]int
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			pairs = append(pairs, []int{i, j})
		}
	}
	order := rng(w.seed, "cold-exact", k/len(pairs)).Perm(len(pairs))
	return server.StudyRequest{
		Apps:         pick(names, pairs[order[k%len(pairs)]]),
		Instructions: w.budget + int64(k),
		Fidelity:     string(sim.FidelityExact),
	}
}

func (w *coldExact) probe() server.StudyRequest { return w.reqAt(0) }

// setup serves one small study so lazy start-up work is not timed; its
// budget differs from every measured key.
func (w *coldExact) setup(ctx context.Context, t *target) error {
	req := w.reqAt(0)
	req.Instructions = w.warmup
	_, err := t.postJSON(ctx, "/v1/study", req, http.StatusOK)
	return err
}

func (w *coldExact) round(ctx context.Context, t *target, ops int, deadline time.Time, rec *recorder) {
	closedLoop(ctx, ops, deadline, &w.next, rec, func(ctx context.Context, k int) error {
		req := w.reqAt(k)
		b, err := t.postJSON(ctx, "/v1/study", req, http.StatusOK)
		if err != nil {
			return err
		}
		var rep studyReply
		if err := json.Unmarshal(b, &rep); err != nil {
			return fmt.Errorf("decode study: %w", err)
		}
		if rep.Meta.Cache != "miss" {
			return fmt.Errorf("cold study %d served as %q", k, rep.Meta.Cache)
		}
		if len(w.checks) < 2 {
			w.checks = append(w.checks, deferredCheck{req: req, study: rep.Study})
		}
		return nil
	})
}

func (w *coldExact) verify(ctx context.Context, _ *target, rec *recorder) error {
	return verifyDeferred(ctx, w.checks, rec)
}

// warmupBudget is the instruction budget of the cold workloads' set-up
// request: enough simulation that set-up time is mostly work rather than
// process start, and distinct from every measured budget.
const warmupBudget = 100_000

// ---- cold-phase-stream --------------------------------------------------

// coldPhaseStream streams 4-app phase-fidelity studies over NDJSON; each
// cycle of four requests partitions a seeded permutation of all sixteen
// applications.
type coldPhaseStream struct {
	seed   int64
	budget int64
	warmup int64 // set-up request budget
	next   int
	checks []deferredCheck
}

func newColdPhaseStream(seed int64, scale float64) *coldPhaseStream {
	return &coldPhaseStream{seed: seed, budget: scaled(1_000_000, scale), warmup: scaled(warmupBudget, scale)}
}

func (w *coldPhaseStream) reqAt(k int) server.StudyRequest {
	perm := rng(w.seed, "cold-phase-stream", k/4).Perm(16)
	i := k % 4
	return server.StudyRequest{
		Apps:         pick(appNames(), perm[4*i:4*i+4]),
		Instructions: w.budget - int64(k),
		Fidelity:     string(sim.FidelityPhase),
	}
}

func (w *coldPhaseStream) probe() server.StudyRequest { return w.reqAt(0) }

func (w *coldPhaseStream) setup(ctx context.Context, t *target) error {
	req := w.reqAt(0)
	req.Instructions = w.warmup
	_, _, err := stream(ctx, t, req)
	return err
}

func (w *coldPhaseStream) round(ctx context.Context, t *target, ops int, deadline time.Time, rec *recorder) {
	closedLoop(ctx, ops, deadline, &w.next, rec, func(ctx context.Context, k int) error {
		req := w.reqAt(k)
		first, rep, err := stream(ctx, t, req)
		if err != nil {
			return err
		}
		if rep.Meta.Cache != "miss" {
			return fmt.Errorf("cold stream %d served as %q", k, rep.Meta.Cache)
		}
		rec.mu.Lock()
		rec.firstEvent = append(rec.firstEvent, ms(first))
		rec.mu.Unlock()
		if len(w.checks) < 2 {
			w.checks = append(w.checks, deferredCheck{req: req, study: rep.Study})
		}
		return nil
	})
}

func (w *coldPhaseStream) verify(ctx context.Context, _ *target, rec *recorder) error {
	return verifyDeferred(ctx, w.checks, rec)
}

// streamEvent is one NDJSON line of /v1/study/stream.
type streamEvent struct {
	Event string            `json:"event"`
	Cache string            `json:"cache"`
	Meta  server.StudyMeta  `json:"meta"`
	Study json.RawMessage   `json:"study"`
	Error *server.ErrorBody `json:"error"`
}

// stream reads one /v1/study/stream response to its end. It returns the
// time to the first app event and the final study event, and checks the
// protocol: meta first, one app event per cell, study last.
func stream(ctx context.Context, t *target, req server.StudyRequest) (time.Duration, studyReply, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	start := time.Now()
	resp, err := t.do(ctx, http.MethodGet, "/v1/study/stream?"+studyQuery(req), nil)
	if err != nil {
		return 0, studyReply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, studyReply{}, fmt.Errorf("stream: status %d: %.200s", resp.StatusCode, b)
	}
	cells := len(req.Apps) * 5
	br := bufio.NewReader(resp.Body)
	var first time.Duration
	apps := 0
	for i := 0; ; i++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return 0, studyReply{}, fmt.Errorf("stream ended before the study event: %w", err)
		}
		var ev streamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return 0, studyReply{}, fmt.Errorf("stream event: %w", err)
		}
		switch {
		case i == 0 && ev.Event != "meta":
			return 0, studyReply{}, fmt.Errorf("stream opened with %q, want meta", ev.Event)
		case ev.Event == "app":
			if apps == 0 {
				first = time.Since(start)
			}
			apps++
		case ev.Event == "error":
			return 0, studyReply{}, fmt.Errorf("stream error event: %+v", ev.Error)
		case ev.Event == "study":
			if apps != cells {
				return 0, studyReply{}, fmt.Errorf("stream carried %d app events, want %d", apps, cells)
			}
			return first, studyReply{Meta: ev.Meta, Study: ev.Study}, nil
		}
	}
}

// ---- warm-hits ----------------------------------------------------------

// Request kinds of the warm-hits mix.
const (
	kindGet = iota
	kindPost
	kindStream
	numKinds
)

// warmHits replays Zipf-distributed hits on 48 pre-warmed study keys: an
// open loop at a fixed rate (latency) and a closed loop on two
// connections (capacity), alternating in blocks. Key i is the Zipf rank-i
// key; its size (2 + i mod 3 applications) and fidelity (exact when i mod
// 6 is 5, else phase) depend on the rank alone, so every seed serves the
// same mix of response sizes and only the applications differ.
type warmHits struct {
	seed     int64
	keys     []server.StudyRequest
	openN    int
	closedN  int
	rate     float64 // open-loop requests per second
	block    int
	expected [numKinds][][]byte // verified response body per kind and key
}

func newWarmHits(seed int64, scale float64) *warmHits {
	// The open loop runs at a quarter of the closed-loop capacity (about
	// 2 000 req/s here): at 1 000 req/s client and server kept most of both
	// CPUs busy, so queueing amplified every slow spell of the shared host
	// into the percentiles.
	w := &warmHits{seed: seed, openN: scaledCount(500, scale, 20), closedN: scaledCount(1000, scale, 20), rate: 500}
	// 48 distinct subsets of an 8-app pool: the keys are all distinct
	// while their timing and thermal artifacts are shared, which keeps the
	// pre-warm (paid on every set-up) short.
	r := rng(seed, "warm-keys", 0)
	names := appNames()
	pool := r.Perm(len(names))[:8]
	seen := map[string]bool{}
	budget := scaled(200_000, scale)
	for len(w.keys) < 48 {
		i := len(w.keys)
		size := 2 + i%3
		idx := append([]int(nil), r.Perm(8)[:size]...)
		sort.Ints(idx)
		apps := make([]string, size)
		for i, j := range idx {
			apps[i] = names[pool[j]]
		}
		id := strings.Join(apps, ",")
		if seen[id] {
			continue
		}
		seen[id] = true
		fid := sim.FidelityPhase
		if i%6 == 5 {
			fid = sim.FidelityExact
		}
		w.keys = append(w.keys, server.StudyRequest{Apps: apps, Instructions: budget, Fidelity: string(fid)})
	}
	return w
}

func (w *warmHits) probe() server.StudyRequest { return w.keys[0] }

// warmReq is one request of the mix.
type warmReq struct{ key, kind int }

// requests returns block b's request sequence: Zipf(1.1) key ranks and an
// 80/10/10 GET/POST/stream mix, drawn from the block's own stream.
func (w *warmHits) requests(b, n int) []warmReq {
	r := rng(w.seed, "warm-requests", b)
	z := rand.NewZipf(r, 1.1, 1, uint64(len(w.keys)-1))
	out := make([]warmReq, n)
	for i := range out {
		key := int(z.Uint64())
		kind := kindGet
		switch u := r.Float64(); {
		case u >= 0.9:
			kind = kindStream
		case u >= 0.8:
			kind = kindPost
		}
		out[i] = warmReq{key: key, kind: kind}
	}
	return out
}

// send issues one request and returns its raw body.
func (w *warmHits) send(ctx context.Context, t *target, r warmReq) ([]byte, error) {
	req := w.keys[r.key]
	switch r.kind {
	case kindPost:
		return t.postJSON(ctx, "/v1/study", req, http.StatusOK)
	case kindStream:
		return t.fetch(ctx, http.MethodGet, "/v1/study/stream?"+studyQuery(req), nil, http.StatusOK)
	default:
		return t.fetch(ctx, http.MethodGet, "/v1/study?"+studyQuery(req), nil, http.StatusOK)
	}
}

func studyQuery(req server.StudyRequest) string {
	q := url.Values{}
	q.Set("apps", strings.Join(req.Apps, ","))
	q.Set("instructions", strconv.FormatInt(req.Instructions, 10))
	q.Set("fidelity", req.Fidelity)
	if len(req.Mechanisms) > 0 {
		q.Set("mechanisms", strings.Join(req.Mechanisms, ","))
	}
	return q.Encode()
}

// setup computes every key once (two at a time), then fetches each key
// once per request kind and checks that the hit is marked as one and
// carries the pre-warmed study; those bodies become the expected answers.
func (w *warmHits) setup(ctx context.Context, t *target) error {
	studies := make([][]byte, len(w.keys))
	err := parallel(maxConns, len(w.keys), func(i int) error {
		b, err := t.postJSON(ctx, "/v1/study", w.keys[i], http.StatusOK)
		if err != nil {
			return err
		}
		var rep studyReply
		if err := json.Unmarshal(b, &rep); err != nil {
			return err
		}
		studies[i], err = compact(rep.Study)
		return err
	})
	if err != nil {
		return fmt.Errorf("pre-warm: %w", err)
	}
	for kind := range w.expected {
		w.expected[kind] = make([][]byte, len(w.keys))
		for i := range w.keys {
			b, err := w.send(ctx, t, warmReq{key: i, kind: kind})
			if err != nil {
				return err
			}
			if err := checkHit(b, kind, studies[i]); err != nil {
				return fmt.Errorf("key %d kind %d: %w", i, kind, err)
			}
			w.expected[kind][i] = b
		}
	}
	return nil
}

// checkHit decodes one warm response: it must be a cache hit whose study
// equals the pre-warmed one.
func checkHit(body []byte, kind int, want []byte) error {
	var rep studyReply
	if kind == kindStream {
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		var meta, last streamEvent
		if err := json.Unmarshal(lines[0], &meta); err != nil {
			return err
		}
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			return err
		}
		if meta.Event != "meta" || meta.Cache != "hit" || last.Event != "study" {
			return fmt.Errorf("stream replay is not a hit: %s … %s", meta.Event, last.Event)
		}
		rep = studyReply{Meta: last.Meta, Study: last.Study}
	} else if err := json.Unmarshal(body, &rep); err != nil {
		return err
	}
	if rep.Meta.Cache != "hit" {
		return fmt.Errorf("served as %q, want hit", rep.Meta.Cache)
	}
	got, err := compact(rep.Study)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("study differs from its pre-warm answer")
	}
	return nil
}

func compact(raw json.RawMessage) ([]byte, error) {
	var buf bytes.Buffer
	err := json.Compact(&buf, raw)
	return buf.Bytes(), err
}

// round runs ops blocks, each an open-loop then a closed-loop phase.
func (w *warmHits) round(ctx context.Context, t *target, ops int, deadline time.Time, rec *recorder) {
	for n := 0; n < ops && time.Now().Before(deadline) && ctx.Err() == nil; n++ {
		reqs := w.requests(w.block, w.openN+w.closedN)
		w.block++
		w.openLoop(ctx, t, reqs[:w.openN], rec)
		start := time.Now()
		w.run(ctx, t, reqs[w.openN:], maxConns, rec, nil)
		rec.addClosed(w.closedN, time.Since(start))
	}
}

// openLoop sends reqs on a fixed schedule over the two connections,
// timing each from when it was due, so a stall also charges the requests
// queued behind it.
func (w *warmHits) openLoop(ctx context.Context, t *target, reqs []warmReq, rec *recorder) {
	start := time.Now().Add(time.Millisecond)
	w.run(ctx, t, reqs, maxConns, rec, func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / w.rate * float64(time.Second)))
	})
}

// run sends reqs from conns workers. With due, request i is held until
// due(i) and timed from then (open loop); without, it goes as soon as a
// worker is free and is counted but not timed (closed loop).
func (w *warmHits) run(ctx context.Context, t *target, reqs []warmReq, conns int, rec *recorder,
	due func(int) time.Time) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				at := time.Now()
				if due != nil {
					at = due(i)
					if d := time.Until(at); d > 0 {
						time.Sleep(d)
					}
					late := ms(time.Since(at))
					rec.mu.Lock()
					rec.late = append(rec.late, late)
					rec.mu.Unlock()
				}
				b, err := w.send(ctx, t, reqs[i])
				if err == nil && !bytes.Equal(b, w.expected[reqs[i].kind][reqs[i].key]) {
					err = fmt.Errorf("key %d kind %d: body differs from its verified hit", reqs[i].key, reqs[i].kind)
				}
				rec.add(ms(time.Since(at)), err, due != nil)
			}
		}()
	}
	wg.Wait()
}

func (w *warmHits) verify(context.Context, *target, *recorder) error { return nil }

// replay sends the first n requests of the first block one at a time.
func (w *warmHits) replay(ctx context.Context, t *target, n int, rec *recorder) {
	w.run(ctx, t, w.requests(0, n), 1, rec, nil)
}

// parallel runs fn(0..n-1) on at most conns goroutines and returns the
// first error.
func parallel(conns, n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ---- sweep-batch --------------------------------------------------------

// sweepJob is one study job of the ablation sweep.
type sweepJob struct {
	apps       []string
	mechanisms []string
	fidelity   string
	budget     int64
}

// sweepBatch submits batches of eight mechanism-ablation study jobs and
// one Monte Carlo job, each job twice, against a rampd whose timing and
// thermal artifacts for every application are pre-warmed. No (app,
// mechanism set, fidelity, budget) cell repeats, so every FIT stage misses
// and is written (and spilled) while timing and thermal always hit.
type sweepBatch struct {
	seed int64
	// settings are the pre-warmed (fidelity, budget) pairs, each as a
	// study of all sixteen applications.
	settings []server.StudyRequest
	// pools holds each setting's jobs in seeded order; every batch takes
	// perBatch[i] jobs from pools[i], so every batch has the same mix.
	pools   [][]sweepJob
	mcApps  []string
	next    int
	checks  []deferredCheck
	batches int // batches completed since set-up
}

// mcSamples is the per-cell replica count of the sweep's Monte Carlo job.
const mcSamples = 2000

// perBatch is how many study jobs of each setting one batch holds.
var perBatch = []int{3, 3, 2}

// batchSize is the number of study jobs per batch (plus one MC job).
const batchSize = 8

func newSweepBatch(seed int64, scale float64) *sweepBatch {
	names := appNames()
	w := &sweepBatch{seed: seed, settings: []server.StudyRequest{
		{Apps: names, Instructions: scaled(1_000_000, scale), Fidelity: string(sim.FidelityPhase)},
		{Apps: names, Instructions: scaled(300_000, scale), Fidelity: string(sim.FidelityExact)},
		{Apps: names, Instructions: scaled(100_000, scale), Fidelity: string(sim.FidelityExact)},
	}}
	sets := ablationSets()
	for fi, st := range w.settings {
		var pool []sweepJob
		for si, set := range sets {
			perm := rng(seed, "sweep-pairs", fi*len(sets)+si).Perm(len(names))
			for i := 0; i < len(names)/2; i++ {
				pool = append(pool, sweepJob{apps: pick(names, perm[2*i:2*i+2]),
					mechanisms: set, fidelity: st.Fidelity, budget: st.Instructions})
			}
		}
		r := rng(seed, "sweep-order", fi)
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		w.pools = append(w.pools, pool)
	}
	w.mcApps = pick(names, rng(seed, "sweep-mc", 0).Perm(len(names))[:4])
	return w
}

// ablationSets lists every non-empty mechanism subset except the default
// four, in canonical form.
func ablationSets() [][]string {
	var names []string
	for _, m := range core.RegisteredMechanisms() {
		names = append(names, m.Name)
	}
	var out [][]string
	for mask := 1; mask < 1<<len(names); mask++ {
		var set []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				set = append(set, n)
			}
		}
		if canon, err := core.CanonicalMechanismNames(set); err == nil && canon != nil {
			out = append(out, canon)
		}
	}
	return out
}

// jobsAt returns batch b's study jobs.
func (w *sweepBatch) jobsAt(b int) []sweepJob {
	var out []sweepJob
	for i, n := range perBatch {
		out = append(out, w.pools[i][b*n:(b+1)*n]...)
	}
	return out
}

// maxBatches is how many batches the job pools support.
func (w *sweepBatch) maxBatches() int {
	max := math.MaxInt
	for i, n := range perBatch {
		if m := len(w.pools[i]) / n; m < max {
			max = m
		}
	}
	return max
}

func (w *sweepBatch) probe() server.StudyRequest { return w.jobsAt(0)[0].request() }

func (j sweepJob) request() server.StudyRequest {
	return server.StudyRequest{Apps: j.apps, Instructions: j.budget, Fidelity: j.fidelity, Mechanisms: j.mechanisms}
}

func (w *sweepBatch) mcBase() server.StudyRequest {
	return server.StudyRequest{Apps: w.mcApps, Instructions: w.settings[0].Instructions, Fidelity: w.settings[0].Fidelity}
}

// setup pre-warms timing and thermal artifacts of all sixteen applications
// at every fidelity/budget pair, plus the Monte Carlo job's base study.
func (w *sweepBatch) setup(ctx context.Context, t *target) error {
	w.batches = 0
	for _, req := range append(w.settings, w.mcBase()) {
		if _, err := t.postJSON(ctx, "/v1/study", req, http.StatusOK); err != nil {
			return fmt.Errorf("pre-warm: %w", err)
		}
	}
	return nil
}

// batchAt builds batch b: its study jobs and the MC job, each twice.
func (w *sweepBatch) batchAt(b int) server.BatchRequest {
	var jobs []server.BatchJobRequest
	for rep := 0; rep < 2; rep++ {
		for _, j := range w.jobsAt(b) {
			jobs = append(jobs, server.BatchJobRequest{Kind: sim.JobStudy,
				MCStudyRequest: server.MCStudyRequest{StudyRequest: j.request()}})
		}
		jobs = append(jobs, server.BatchJobRequest{Kind: sim.JobMC, MCStudyRequest: server.MCStudyRequest{
			StudyRequest: w.mcBase(), MCConfig: sim.MCConfig{Samples: mcSamples, Seed: int64(b)}}})
	}
	return server.BatchRequest{Jobs: jobs}
}

func (w *sweepBatch) round(ctx context.Context, t *target, ops int, deadline time.Time, rec *recorder) {
	if left := w.maxBatches() - w.next; left < ops {
		rec.logf("sweep-batch: only %d of %d batches left in the job pools", left, ops)
		ops = left
	}
	checked := false
	closedLoop(ctx, ops, deadline, &w.next, rec, func(ctx context.Context, b int) error {
		keep := !checked && len(w.checks) < 3
		study, err := w.runBatch(ctx, t, b)
		if err != nil {
			return err
		}
		if keep {
			checked = true
			w.checks = append(w.checks, deferredCheck{req: w.jobsAt(b)[0].request(), study: study})
		}
		w.batches++
		return nil
	})
}

// runBatch submits batch b, follows its stream to the end, and fetches
// every job's result; it returns the first study job's document.
func (w *sweepBatch) runBatch(ctx context.Context, t *target, b int) (json.RawMessage, error) {
	body, err := t.postJSON(ctx, "/v1/batch", w.batchAt(b), http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	var sub server.BatchSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		return nil, fmt.Errorf("decode batch submit: %w", err)
	}
	if sub.UniqueJobs != batchSize+1 || sub.Deduped != batchSize+1 {
		return nil, fmt.Errorf("batch %d: %d unique jobs, %d deduped; want %d and %d",
			b, sub.UniqueJobs, sub.Deduped, batchSize+1, batchSize+1)
	}
	if err := followBatch(ctx, t, sub.BatchID); err != nil {
		return nil, err
	}
	var first json.RawMessage
	for i, id := range sub.JobIDs[:batchSize+1] {
		body, err := t.fetch(ctx, http.MethodGet, "/v1/batch/"+sub.BatchID+"/jobs/"+id, nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		if i == batchSize {
			var mc struct {
				MC sim.MCResult `json:"mc"`
			}
			if err := json.Unmarshal(body, &mc); err != nil {
				return nil, fmt.Errorf("decode MC job: %w", err)
			}
			if want := len(w.mcApps) * 5 * mcSamples; mc.MC.TotalReplicas != want {
				return nil, fmt.Errorf("MC job drew %d replicas, want %d", mc.MC.TotalReplicas, want)
			}
			continue
		}
		var rep studyReply
		if err := json.Unmarshal(body, &rep); err != nil {
			return nil, fmt.Errorf("decode study job: %w", err)
		}
		if i == 0 {
			first = rep.Study
		}
	}
	return first, nil
}

// followBatch reads the batch's NDJSON stream until its closing batch
// event and checks that every job finished.
func followBatch(ctx context.Context, t *target, id string) error {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	resp, err := t.do(ctx, http.MethodGet, "/v1/batch/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("batch stream: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("batch stream ended early: %w", err)
		}
		var ev struct {
			Event string           `json:"event"`
			Batch jobs.BatchStatus `json:"batch"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("batch stream event: %w", err)
		}
		if ev.Event == "batch" {
			if n := ev.Batch.Counts[jobs.StateDone]; n != batchSize+1 {
				return fmt.Errorf("batch %s finished with %d jobs done (%v)", id, n, ev.Batch.Counts)
			}
			return nil
		}
	}
}

// verify recomputes one study job per round in process, and checks on
// /metrics that every batch executed exactly its nine unique jobs.
func (w *sweepBatch) verify(ctx context.Context, t *target, rec *recorder) error {
	if err := verifyDeferred(ctx, w.checks, rec); err != nil {
		return err
	}
	per, err := jobsPerBatch(ctx, t, w.batches)
	if err != nil {
		return err
	}
	if w.batches > 0 && per != batchSize+1 {
		rec.wrongAnswer("%.3f jobs executed per batch, want %d", per, batchSize+1)
	}
	return nil
}

// jobsPerBatch reads the server's finished-job counter and divides it by
// the batches submitted.
func jobsPerBatch(ctx context.Context, t *target, batches int) (float64, error) {
	b, err := t.fetch(ctx, http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	var m struct {
		Jobs jobs.Stats `json:"jobs"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return 0, fmt.Errorf("decode /metrics: %w", err)
	}
	if m.Jobs.Failed != 0 {
		return 0, fmt.Errorf("%d batch jobs failed", m.Jobs.Failed)
	}
	if batches == 0 {
		return 0, nil
	}
	return float64(m.Jobs.Done) / float64(batches), nil
}
