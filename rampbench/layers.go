package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/jobs"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/paperdata"
	"github.com/ramp-sim/ramp/internal/report"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/server"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/store"
	"github.com/ramp-sim/ramp/internal/trace"
	"github.com/ramp-sim/ramp/internal/workload"
)

// layerMetrics lists the traced run's per-layer metrics, named by module.
// Each is measured from outside the program, by timing calls into the
// module's exported functions; "ratio", "count" and "%" accuracy metrics
// are deterministic for a seed.
var layerMetrics = []metricDef{
	{"workload.gen_ns_per_instr", "ns"},
	{"workload.skipwarm_ns_per_instr", "ns"},
	{"microarch.run_ns_per_instr", "ns"},
	{"microarch.cache_ns_per_access", "ns"},
	{"microarch.bpred_ns_per_branch", "ns"},
	{"microarch.ipc", "ratio"},
	{"microarch.l1d_miss_rate", "ratio"},
	{"microarch.mispredict_rate", "ratio"},
	{"microarch.ipc_err_pct", "%"},
	{"trace.kept_share", "ratio"},
	{"sim.timing_ns_per_instr", "ns"},
	{"sim.timing_phase_ns_per_instr", "ns"},
	{"sim.timing_split_ratio", "ratio"},
	{"sim.study_coverage", "ratio"},
	{"sim.span_coverage", "ratio"},
	{"sim.study_key_us", "us"},
	{"sim.fit_key_us", "us"},
	{"sim.mc_ns_per_replica", "ns"},
	{"sim.phase_mttf_dev_pct", "%"},
	{"sim.phase_worstcase_dev_pct", "%"},
	{"thermal.ms_per_cell", "ms"},
	{"core.fit_ms_per_cell", "ms"},
	{"core.fit7_ms_per_cell", "ms"},
	{"core.fit_increase_err_pct", "%"},
	{"store.get_mem_us", "us"},
	{"store.put_mem_us", "us"},
	{"store.put_spill_ms", "ms"},
	{"store.get_disk_ms", "ms"},
	{"store.timing_hit_share", "ratio"},
	{"store.thermal_hit_share", "ratio"},
	{"store.fit_hit_share", "ratio"},
	{"server.handler_us", "us"},
	{"server.result_cache_get_us", "us"},
	{"server.result_hit_share", "ratio"},
	{"jobs.overhead_us_per_job", "us"},
	{"sched.queue_wait_ms", "ms"},
	{"report.encode_us", "us"},
	{"report.encode16_us", "us"},
	{"obs.ledger_append_us", "us"},
	{"obs.trace_overhead_pct", "%"},
	{"host.chase_ns", "ns"},
}

// Layer sums must explain the whole within these bounds; -check enforces
// them.
const (
	coverageLo, coverageHi = 0.95, 1.05
	splitLo, splitHi       = 0.9, 1.1
)

// probeInstrCap bounds the per-application budget of the generator and
// core probes, which hold the whole instruction trace in memory.
const probeInstrCap = 500_000

// probeReps is how often each timing-stage probe call repeats. The probe
// study is measured each way in at least studyRounds rounds, and in more
// (up to four times as many) until studyMinTime has passed, so a small
// study still gets enough rounds for a steady median.
const (
	probeReps    = 3
	studyRounds  = 7
	studyMinTime = 2 * time.Second
)

// layerRun is one traced run: bench spans around every timed call, kept in
// memory and written out at the end.
type layerRun struct {
	ctx   context.Context // carries the bench tracer and the root span
	col   *obs.Collector
	seed  int64
	scale float64
	dir   string // scratch directory for spill probes
	m     map[string]float64
}

// span times fn under a bench span named "bench."+name. The program calls
// inside fn run on a context without the tracer, so the program's own
// spans cost nothing in the timed calls; tracedSpan records them.
func (l *layerRun) span(name string, fn func() error) (time.Duration, error) {
	return l.tracedSpan(name, func(context.Context) error { return fn() })
}

// tracedSpan is span for calls that should record the program's own spans:
// fn receives a context carrying the bench tracer, under the bench span.
func (l *layerRun) tracedSpan(name string, fn func(context.Context) error) (time.Duration, error) {
	ctx, sp := obs.StartSpan(l.ctx, "bench."+name)
	t0 := time.Now()
	err := fn(ctx)
	d := time.Since(t0)
	sp.Finish()
	return d, err
}

// traceWorkload runs the per-layer probes for one workload, then replays
// its first operations in process at parallelism 1, returning the
// per-layer metrics and the replay's record.
func traceWorkload(ctx context.Context, def workloadDef, seed int64, scale float64, scratch string,
	col *obs.Collector, logf func(string, ...any)) (map[string]float64, *recorder, error) {
	tctx, root := obs.StartSpan(obs.WithTracer(ctx, obs.NewTracer(col)), "bench.traced."+def.name)
	defer root.Finish()
	l := &layerRun{ctx: tctx, col: col, seed: seed, scale: scale, dir: scratch, m: map[string]float64{}}
	run := def.new(seed, scale)
	rec := &recorder{logf: logf}

	steps := []struct {
		name string
		fn   func(context.Context, server.StudyRequest) error
	}{
		{"host", func(context.Context, server.StudyRequest) error { l.m["host.chase_ns"] = hostChaseNS(); return nil }},
		{"core-model", l.timingCore},
		{"study", l.study},
		{"suite", l.suite},
		{"phase", l.phaseAccuracy},
		{"keys", l.keys},
		{"store", l.store},
		{"jobs", l.jobs},
		{"ledger", l.ledger},
	}
	probe := run.probe()
	for _, s := range steps {
		if err := s.fn(ctx, probe); err != nil {
			return nil, nil, fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	if err := l.replay(ctx, def, run, rec); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	for _, md := range layerMetrics {
		if _, ok := l.m[md.name]; !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not measured", md.name)
		}
	}
	return l.m, rec, nil
}

// timingCore takes the timing stage apart for the probe's applications:
// the generator alone (Generator.Next into a slice), the core alone
// (Simulator.Run over that slice), the L1 D-cache and branch predictor
// alone (replaying the slice's accesses and branches), statistical warming
// (Generator.SkipWarm), the sampler's kept share, and the whole stage
// (RunTimingContext) in exact and phase fidelity. Each call is timed
// probeReps times, interleaved, and the fastest counts: contention on a
// shared host only ever adds time. The split ratio is the median over
// repetitions of each repetition's own ratio, so a slow spell that hits
// one repetition moves neither side alone.
func (l *layerRun) timingCore(ctx context.Context, probe server.StudyRequest) error {
	cfg, profiles, _, err := studyInputs(probe)
	if err != nil {
		return err
	}
	n := probe.Instructions
	if n > probeInstrCap {
		n = probeInstrCap
	}
	if len(profiles) > 2 {
		profiles = profiles[:2]
	}
	exact, phase := cfg, cfg
	exact.Instructions, phase.Instructions = n, n
	exact.Fidelity = nil
	phase.Fidelity = &sim.Fidelity{Mode: sim.FidelityPhase}
	machine := cfg.Machine

	var gen, run, cache, bpred, skip, timing, timingPhase time.Duration
	var accesses, branches, kept, dropped int64
	var total microarch.Result
	var splits []float64 // (gen + run) ÷ timing of each repetition
	for _, p := range profiles {
		var best [7]time.Duration
		for rep := 0; rep < probeReps; rep++ {
			first := rep == 0
			instrs := make([]trace.Instruction, 0, n)
			var res microarch.Result
			calls := [7]struct {
				name string
				fn   func() error
			}{
				{"workload.gen", func() error {
					g, err := workload.New(p, n)
					if err != nil {
						return err
					}
					for {
						in, err := g.Next()
						if errors.Is(err, io.EOF) {
							return nil
						}
						if err != nil {
							return err
						}
						instrs = append(instrs, in)
					}
				}},
				{"microarch.run", func() error {
					s, err := microarch.NewSimulator(machine)
					if err != nil {
						return err
					}
					res, err = s.Run(trace.NewSliceStream(instrs))
					return err
				}},
				{"microarch.cache", func() error {
					c, err := microarch.NewCache(machine.L1D)
					if err != nil {
						return err
					}
					for i := range instrs {
						if instrs[i].Class.IsMem() {
							c.Access(instrs[i].Addr)
							if first {
								accesses++
							}
						}
					}
					return nil
				}},
				{"microarch.bpred", func() error {
					pr := microarch.NewPredictorKind(machine.PredictorKind, machine.PredictorBits, machine.BTBEntries)
					for i := range instrs {
						if instrs[i].Class == trace.ClassBranch {
							pr.PredictAndUpdate(instrs[i].PC, instrs[i].Taken, instrs[i].Target)
							if first {
								branches++
							}
						}
					}
					return nil
				}},
				{"workload.skipwarm", func() error {
					g, err := workload.New(p, -1)
					if err != nil {
						return err
					}
					s, err := microarch.NewSimulator(machine)
					if err != nil {
						return err
					}
					_, err = g.SkipWarm(n, s)
					return err
				}},
				{"sim.timing", func() error {
					_, err := sim.RunTimingContext(ctx, exact, p)
					return err
				}},
				{"sim.timing.phase", func() error {
					_, err := sim.RunTimingContext(ctx, phase, p)
					return err
				}},
			}
			var took [len(calls)]time.Duration
			for i, c := range calls {
				d, err := l.span(c.name, c.fn)
				if err != nil {
					return err
				}
				took[i] = d
				if best[i] == 0 || d < best[i] {
					best[i] = d
				}
			}
			splits = append(splits, float64(took[0]+took[1])/float64(took[5]))
			if first {
				total.Instructions += res.Instructions
				total.Cycles += res.Cycles
				total.L1DAccesses += res.L1DAccesses
				total.L1DMisses += res.L1DMisses
				total.Branches += res.Branches
				total.Mispredicts += res.Mispredicts
			}
		}
		gen += best[0]
		run += best[1]
		cache += best[2]
		bpred += best[3]
		skip += best[4]
		timing += best[5]
		timingPhase += best[6]

		g, err := workload.New(p, n)
		if err != nil {
			return err
		}
		sampler, err := trace.NewSystematicSampler(g, trace.SamplerConfig{
			WindowInstrs: sim.DefaultSampleWindowInstrs,
			PeriodInstrs: sim.DefaultSamplePeriodInstrs,
			HeadInstrs:   sim.DefaultSampleHeadInstrs,
		})
		if err != nil {
			return err
		}
		if _, err := trace.Collect(sampler, 0); err != nil {
			return err
		}
		kept += sampler.Kept()
		dropped += sampler.Dropped()
	}
	instr := float64(n) * float64(len(profiles))
	l.m["workload.gen_ns_per_instr"] = float64(gen) / instr
	l.m["workload.skipwarm_ns_per_instr"] = float64(skip) / instr
	l.m["microarch.run_ns_per_instr"] = float64(run) / instr
	l.m["microarch.cache_ns_per_access"] = float64(cache) / float64(accesses)
	l.m["microarch.bpred_ns_per_branch"] = float64(bpred) / float64(branches)
	l.m["microarch.ipc"] = total.IPC()
	l.m["microarch.l1d_miss_rate"] = total.L1DMissRate()
	l.m["microarch.mispredict_rate"] = total.MispredictRate()
	l.m["trace.kept_share"] = float64(kept) / float64(kept+dropped)
	l.m["sim.timing_ns_per_instr"] = float64(timing) / instr
	l.m["sim.timing_phase_ns_per_instr"] = float64(timingPhase) / instr
	l.m["sim.timing_split_ratio"] = median(splits)
	return nil
}

// stageTimes is one stage-by-stage pass over a study.
type stageTimes struct {
	timing, thermal, fit time.Duration
	cells                int
	series               []*sim.ThermalSeries
	techs                []scaling.Technology
}

// layered computes a study through the public per-stage calls in the order
// RunStudyContext runs them without a cache: timing per application, the
// calibrated base cell (thermal plus two power-calibration passes, then
// FIT), then every scaled cell. Qualification and the worst-case analysis
// are not repeated; they are what the coverage ratio leaves unexplained.
func (l *layerRun) layered(ctx context.Context, cfg sim.Config, profiles []workload.Profile,
	techs []scaling.Technology) (stageTimes, error) {
	var st stageTimes
	base := techs[0]
	thermal := func(tr *sim.ActivityTrace, tech scaling.Technology, sink, scale float64) (*sim.ThermalSeries, error) {
		var ts *sim.ThermalSeries
		d, err := l.span("sim.thermal", func() (err error) {
			ts, err = sim.RunThermalContext(ctx, cfg, tr, tech, sink, scale)
			return err
		})
		st.thermal += d
		return ts, err
	}
	fit := func(ts *sim.ThermalSeries, tech scaling.Technology) (sim.AppRun, error) {
		var run sim.AppRun
		d, err := l.span("sim.fit", func() (err error) {
			run, err = sim.AccumulateFITContext(ctx, cfg, ts, tech)
			return err
		})
		st.fit += d
		st.cells++
		st.series = append(st.series, ts)
		st.techs = append(st.techs, tech)
		return run, err
	}
	for _, p := range profiles {
		var tr *sim.ActivityTrace
		d, err := l.span("sim.timing", func() (err error) {
			tr, err = sim.RunTimingContext(ctx, cfg, p)
			return err
		})
		if err != nil {
			return st, err
		}
		st.timing += d
		ts, err := thermal(tr, base, 0, 1)
		if err != nil {
			return st, err
		}
		if cfg.CalibrateAppPower && p.TargetPowerW > 0 {
			scale := 1.0
			for pass := 0; pass < 2; pass++ {
				want := p.TargetPowerW - ts.AvgLeakageW
				if want <= 0 || ts.AvgDynamicW <= 0 {
					break
				}
				scale *= want / ts.AvgDynamicW
				if ts, err = thermal(tr, base, 0, scale); err != nil {
					return st, err
				}
			}
		}
		baseRun, err := fit(ts, base)
		if err != nil {
			return st, err
		}
		for _, tech := range techs[1:] {
			ts, err := thermal(tr, tech, baseRun.SinkTempK, baseRun.AppPowerScale)
			if err != nil {
				return st, err
			}
			if _, err := fit(ts, tech); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// study measures the probe study three ways in interleaved rounds:
// RunStudyContext with no tracer, RunStudyContext with the program's spans
// collected, and the stage-by-stage pass. Coverage is the median over
// rounds of the stage sum over that round's untraced wall, and the tracing
// overhead likewise; pairing within a round cancels host drift, and the
// median drops rounds a slow spell hit on one side only. The program-side
// cross-check divides the stage spans by their own study span.
func (l *layerRun) study(ctx context.Context, probe server.StudyRequest) error {
	cfg, profiles, techs, err := studyInputs(probe)
	if err != nil {
		return err
	}
	opts := sim.StudyOptions{Parallelism: 1}
	var plain, traced, stages, spanStages, spanStudy time.Duration
	var coverage, overhead []float64
	var res *sim.StudyResult
	var last stageTimes
	runPlain := func() error {
		var err error
		plain, err = l.span("sim.study", func() (err error) {
			res, err = sim.RunStudyContext(ctx, cfg, profiles, techs, opts)
			return err
		})
		return err
	}
	runTraced := func() error {
		mark := len(l.col.Spans())
		d, err := l.tracedSpan("sim.study.traced", func(ctx context.Context) error {
			_, err := sim.RunStudyContext(ctx, cfg, profiles, techs, opts)
			return err
		})
		traced = d
		for _, sp := range l.col.Spans()[mark:] {
			switch sp.Name {
			case obs.SpanTiming, obs.SpanThermal, obs.SpanFIT:
				spanStages += sp.Duration()
			case obs.SpanStudy:
				spanStudy += sp.Duration()
			}
		}
		return err
	}
	runStages := func() (err error) {
		last, err = l.layered(ctx, cfg, profiles, techs)
		stages = last.timing + last.thermal + last.fit
		return err
	}
	start := time.Now()
	for round := 0; round < studyRounds || (round < 4*studyRounds && time.Since(start) < studyMinTime); round++ {
		order := []func() error{runPlain, runTraced, runStages}
		if round%2 == 1 {
			order = []func() error{runStages, runTraced, runPlain}
		}
		for _, f := range order {
			if err := f(); err != nil {
				return err
			}
		}
		coverage = append(coverage, float64(stages)/float64(plain))
		overhead = append(overhead, (float64(traced)/float64(plain)-1)*100)
	}
	l.m["sim.study_coverage"] = median(coverage)
	l.m["sim.span_coverage"] = float64(spanStages) / float64(spanStudy)
	l.m["obs.trace_overhead_pct"] = median(overhead)
	l.m["thermal.ms_per_cell"] = ms(last.thermal) / float64(last.cells)
	l.m["core.fit_ms_per_cell"] = ms(last.fit) / float64(last.cells)

	all := cfg
	for _, m := range core.RegisteredMechanisms() {
		all.Mechanisms = append(all.Mechanisms, m.Name)
	}
	if all.Mechanisms, err = core.CanonicalMechanismNames(all.Mechanisms); err != nil {
		return err
	}
	fit7, err := l.span("sim.fit.all-mechanisms", func() error {
		for i, ts := range last.series {
			if _, err := sim.AccumulateFITContext(ctx, all, ts, last.techs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["core.fit7_ms_per_cell"] = ms(fit7) / float64(last.cells)

	samples := scaledCount(20_000, l.scale, 1_000)
	var mc *sim.MCResult
	d, err := l.span("sim.mc", func() (err error) {
		mc, err = sim.MonteCarloStudy(ctx, res, sim.MCConfig{Samples: samples, Seed: l.seed},
			sim.MCOptions{Parallelism: 1})
		return err
	})
	if err != nil {
		return err
	}
	l.m["sim.mc_ns_per_replica"] = float64(d) / float64(mc.TotalReplicas)

	enc, err := l.encode(res, 50)
	if err != nil {
		return err
	}
	l.m["report.encode_us"] = enc

	key, err := sim.StudyKey(cfg, profiles, techs)
	if err != nil {
		return err
	}
	c := server.NewCache(64, time.Hour, time.Now)
	c.Put(key, res)
	const gets = 10_000
	d, err = l.span("server.cache.get", func() error {
		for i := 0; i < gets; i++ {
			if _, ok := c.Get(key); !ok {
				return errors.New("result cache lost its entry")
			}
		}
		return nil
	})
	l.m["server.result_cache_get_us"] = float64(d) / gets / 1e3
	return err
}

// encode times report.BuildDocument plus encoding/json, per call in µs.
func (l *layerRun) encode(res *sim.StudyResult, reps int) (float64, error) {
	d, err := l.span("report.encode", func() error {
		for i := 0; i < reps; i++ {
			if _, err := json.Marshal(report.BuildDocument(res)); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(d) / float64(reps) / 1e3, err
}

// suite runs the full sixteen-application exact study the accuracy checks
// need: mean |IPC error| against Table 3 (the workload profiles were tuned
// on it, so this checks the tuning held) and the suite-average FIT increase
// from 180nm to 65nm (1.0V) against the paper's 316% (held out of tuning).
// It also times encoding of the sixteen-application document.
func (l *layerRun) suite(ctx context.Context, _ server.StudyRequest) error {
	req := server.StudyRequest{Apps: appNames(), Instructions: scaled(300_000, l.scale)}
	var res *sim.StudyResult
	_, err := l.span("sim.study.suite", func() (err error) {
		res, err = referenceStudy(ctx, req)
		return err
	})
	if err != nil {
		return err
	}
	target := map[string]float64{}
	for _, row := range paperdata.Table3() {
		target[row.App] = row.IPC
	}
	var sum float64
	apps := res.AppsAt(0)
	for _, a := range apps {
		sum += math.Abs(a.IPC/target[a.App]-1) * 100
	}
	l.m["microarch.ipc_err_pct"] = sum / float64(len(apps))
	h, err := report.ComputeHeadline(res)
	if err != nil {
		return err
	}
	l.m["core.fit_increase_err_pct"] = math.Abs(h.TotalIncreasePct["all"]-paperdata.TotalIncreaseAvgPct) /
		paperdata.TotalIncreaseAvgPct * 100
	l.m["report.encode16_us"], err = l.encode(res, 10)
	return err
}

// phaseAccuracy compares phase fidelity with exact on the first two
// cold-phase-stream studies of the seed: the largest per-cell SOFR-MTTF
// deviation, and the largest §5.2 worst-case deviation (reported, not
// gated).
func (l *layerRun) phaseAccuracy(ctx context.Context, _ server.StudyRequest) error {
	w := newColdPhaseStream(l.seed, l.scale)
	var cell, worst float64
	for k := 0; k < 2; k++ {
		req := w.reqAt(k)
		var phase, exact *sim.StudyResult
		_, err := l.span("sim.study.phase-vs-exact", func() (err error) {
			if phase, err = referenceStudy(ctx, req); err != nil {
				return err
			}
			req.Fidelity = string(sim.FidelityExact)
			exact, err = referenceStudy(ctx, req)
			return err
		})
		if err != nil {
			return err
		}
		for i := range exact.Apps {
			cell = math.Max(cell, devPct(phase.FIT(phase.Apps[i]).MTTFYears(), exact.FIT(exact.Apps[i]).MTTFYears()))
		}
		for i := range exact.Worst {
			worst = math.Max(worst, devPct(phase.WorstFIT(i).MTTFYears(), exact.WorstFIT(i).MTTFYears()))
		}
	}
	l.m["sim.phase_mttf_dev_pct"] = cell
	l.m["sim.phase_worstcase_dev_pct"] = worst
	return nil
}

func devPct(got, want float64) float64 { return math.Abs(got-want) / want * 100 }

// keys times the content-address derivations the caches key on.
func (l *layerRun) keys(_ context.Context, probe server.StudyRequest) error {
	cfg, profiles, techs, err := studyInputs(probe)
	if err != nil {
		return err
	}
	const reps = 500
	d, err := l.span("sim.study-key", func() error {
		for i := 0; i < reps; i++ {
			if _, err := sim.StudyKey(cfg, profiles, techs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["sim.study_key_us"] = float64(d) / reps / 1e3
	d, err = l.span("sim.fit-key", func() error {
		for i := 0; i < reps; i++ {
			if _, err := sim.FITKey(cfg, profiles[0], techs[len(techs)-1]); err != nil {
				return err
			}
		}
		return nil
	})
	l.m["sim.fit_key_us"] = float64(d) / reps / 1e3
	return err
}

// store times the stage store on a thermal series of the probe: memory
// puts and gets, then spilling puts and cold-process disk reads.
func (l *layerRun) store(ctx context.Context, probe server.StudyRequest) error {
	cfg, profiles, techs, err := studyInputs(probe)
	if err != nil {
		return err
	}
	tr, err := sim.RunTimingContext(ctx, cfg, profiles[0])
	if err != nil {
		return err
	}
	ts, err := sim.RunThermalContext(ctx, cfg, tr, techs[0], 0, 1)
	if err != nil {
		return err
	}
	keys := make([]string, 1000)
	for i := range keys {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	codec := store.JSONCodec[*sim.ThermalSeries]()
	mem, err := store.New("thermal", store.Options{MaxEntries: len(keys)}, codec)
	if err != nil {
		return err
	}
	d, _ := l.span("store.put.mem", func() error {
		for _, k := range keys {
			mem.Put(k, ts)
		}
		return nil
	})
	l.m["store.put_mem_us"] = float64(d) / float64(len(keys)) / 1e3
	d, err = l.span("store.get.mem", func() error {
		for _, k := range keys {
			if _, ok := mem.Get(k); !ok {
				return errors.New("memory store lost an entry")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["store.get_mem_us"] = float64(d) / float64(len(keys)) / 1e3

	dir := filepath.Join(l.dir, "store-probe")
	defer os.RemoveAll(dir)
	const spills = 20
	disk, err := store.New("thermal", store.Options{Dir: dir}, codec)
	if err != nil {
		return err
	}
	d, err = l.span("store.put.spill", func() error {
		for _, k := range keys[:spills] {
			if !disk.Put(k, ts).Spilled {
				return errors.New("store did not spill")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["store.put_spill_ms"] = ms(d) / spills
	cold, err := store.New("thermal", store.Options{Dir: dir}, codec)
	if err != nil {
		return err
	}
	d, err = l.span("store.get.disk", func() error {
		for _, k := range keys[:spills] {
			if _, ok := cold.Get(k); !ok {
				return errors.New("spilled entry not found on disk")
			}
		}
		return nil
	})
	l.m["store.get_disk_ms"] = ms(d) / spills
	return err
}

// jobs times the job queue alone: batches of eighteen specs, nine unique,
// through jobs.New with an executor that does nothing.
func (l *layerRun) jobs(context.Context, server.StudyRequest) error {
	var executed atomic.Int64
	q, err := jobs.New(jobs.Config{}, func(context.Context, *jobs.Job) (any, error) {
		executed.Add(1)
		return nil, nil
	})
	if err != nil {
		return err
	}
	defer q.Close()
	const batches = 50
	unique, submitted := 0, 0
	d, err := l.span("jobs.batches", func() error {
		for b := 0; b < batches; b++ {
			specs := make([]jobs.Spec, 2*(batchSize+1))
			for i := range specs {
				specs[i] = jobs.Spec{Key: fmt.Sprintf("%d/%d", b, i%(batchSize+1)), Kind: "study"}
			}
			st, err := q.Submit("rampbench", specs)
			if err != nil {
				return err
			}
			unique += len(st.Jobs)
			submitted += len(st.JobIDs)
			if err := waitBatch(q, st.ID); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.m["jobs.overhead_us_per_job"] = float64(d) / float64(executed.Load()) / 1e3
	l.m["jobs.dedup_share"] = float64(submitted-unique) / float64(submitted)
	l.m["jobs.executed_per_batch"] = float64(executed.Load()) / batches
	return nil
}

// waitBatch blocks until every job of the batch is terminal.
func waitBatch(q *jobs.Queue, id string) error {
	events, stop, ok := q.Subscribe(id)
	if !ok {
		return fmt.Errorf("batch %s vanished", id)
	}
	defer stop()
	for {
		st, ok := q.Batch(id)
		if !ok {
			return fmt.Errorf("batch %s vanished", id)
		}
		if st.Done {
			return nil
		}
		select {
		case <-events:
		case <-time.After(time.Millisecond):
		}
	}
}

// ledger times run-record appends to a bounded ledger.
func (l *layerRun) ledger(context.Context, server.StudyRequest) error {
	lg := obs.NewLedger(obs.DefaultLedgerCapacity)
	rec := obs.RunRecord{Kind: "study", Key: strings.Repeat("ab", 32), Outcome: obs.RunOK,
		ResultCache: obs.ResultHit, Start: time.Now(), WallMS: 1}
	const reps = 10_000
	d, _ := l.span("obs.ledger.append", func() error {
		for i := 0; i < reps; i++ {
			lg.Append(rec)
		}
		return nil
	})
	l.m["obs.ledger_append_us"] = float64(d) / reps / 1e3
	return nil
}

// replay drives the workload's first operations through an in-process
// rampd at parallelism 1, then reads the serving layers' counters from its
// /metrics and times one warm hit through its handler.
func (l *layerRun) replay(ctx context.Context, def workloadDef, run workloadRun, rec *recorder) error {
	cfg := sim.DefaultConfig()
	cfg.Instructions = 200_000
	sc := server.Config{Sim: cfg, MaxInstructions: 2_000_000, Parallelism: 1}
	if def.cacheDir {
		sc.CacheDir = filepath.Join(l.dir, "replay-cache")
		defer os.RemoveAll(sc.CacheDir)
	}
	srv, err := server.New(sc)
	if err != nil {
		return err
	}
	defer srv.Close()
	t := newHandlerTarget(srv.Handler())
	if _, err := l.span("replay.setup", func() error { return run.setup(ctx, t) }); err != nil {
		return err
	}
	_, _ = l.span("replay.ops", func() error {
		if r, ok := run.(interface {
			replay(context.Context, *target, int, *recorder)
		}); ok {
			r.replay(ctx, t, def.replayOps, rec)
		} else {
			run.round(ctx, t, def.replayOps, time.Now().Add(time.Hour), rec)
		}
		return nil
	})
	if err := run.verify(ctx, t, rec); err != nil {
		return err
	}
	if err := l.serverCounters(ctx, t); err != nil {
		return err
	}

	path := "/v1/study?" + studyQuery(run.probe())
	if _, err := t.fetch(ctx, http.MethodGet, path, nil, http.StatusOK); err != nil {
		return err
	}
	const hits = 200
	d, err := l.span("server.handler", func() error {
		for i := 0; i < hits; i++ {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				return fmt.Errorf("warm hit: status %d", w.Code)
			}
		}
		return nil
	})
	l.m["server.handler_us"] = float64(d) / hits / 1e3
	return err
}

// serverCounters reads hit shares from /metrics and the scheduler's mean
// queue wait from the Prometheus exposition.
func (l *layerRun) serverCounters(ctx context.Context, t *target) error {
	b, err := t.fetch(ctx, http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return err
	}
	type storeStats struct {
		MemHits  float64 `json:"mem_hits"`
		DiskHits float64 `json:"disk_hits"`
		Misses   float64 `json:"misses"`
	}
	var m struct {
		Cache struct {
			HitRatio float64 `json:"hit_ratio"`
		} `json:"cache"`
		StageCache map[string]storeStats `json:"stage_cache"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("decode /metrics: %w", err)
	}
	l.m["server.result_hit_share"] = m.Cache.HitRatio
	for _, stage := range []string{"timing", "thermal", "fit"} {
		s := m.StageCache[stage]
		share := 0.0
		if n := s.MemHits + s.DiskHits + s.Misses; n > 0 {
			share = (s.MemHits + s.DiskHits) / n
		}
		l.m["store."+stage+"_hit_share"] = share
	}

	b, err = t.fetch(ctx, http.MethodGet, "/metrics?format=prometheus", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var sum, count float64
	for _, line := range strings.Split(string(b), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, "ramp_sched_queue_wait_seconds_sum{"):
			sum += v
		case strings.HasPrefix(line, "ramp_sched_queue_wait_seconds_count{"):
			count += v
		}
	}
	l.m["sched.queue_wait_ms"] = 0
	if count > 0 {
		l.m["sched.queue_wait_ms"] = sum / count * 1e3
	}
	return nil
}

// hostChaseNS times a dependent pointer chase through 64 MiB, a probe of
// the host's memory latency at the moment it runs: a slow round on a
// shared host shows here as well as in the workload's numbers.
func hostChaseNS() float64 {
	ring := chaseRing()
	const steps = 1 << 20
	i := uint32(0)
	t0 := time.Now()
	for s := 0; s < steps; s++ {
		i = ring[i]
	}
	d := time.Since(t0)
	chaseSink = i
	return float64(d) / steps
}

// chaseSink keeps the chase loop's result live.
var chaseSink uint32

// chaseRing is a single random cycle over 16 Mi slots (Sattolo's
// algorithm), so the chase visits every slot before repeating. It is built
// once per process.
var chaseRing = sync.OnceValue(func() []uint32 {
	const n = 16 << 20
	buf := make([]uint32, n)
	for i := range buf {
		buf[i] = uint32(i)
	}
	r := rng(0, "chase", 0)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i)
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
})
