// Command rampbench is the benchmark of the rampd reliability service. It
// builds ./cmd/rampd, starts it as a child process on 127.0.0.1:0 with its
// default flags, drives one or more seeded workloads at it over loopback
// HTTP from this one process (at most two connections), checks every
// answer, and prints each end-to-end metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// With -trace 1 it instead replays each workload's first operations in
// process, timing calls into each module's exported functions, prints the
// per-layer metrics, and writes the bench spans plus the program's own
// spans as a Chrome trace.
//
// Usage (from the repository root, or via rampbench/run.sh):
//
//	go -C rampbench run . [-workload all|name[,name]] [-seed 1] [-seconds 20]
//	                      [-trace 0|1] [-check] [-scale 1]
//
// See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of rampd sees, reported on every
// workload by the untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"rss_mb", "MB"},
}

const (
	// setupRepeats is how often each workload's set-up runs; setup_s is
	// the median, and the last repetition's server is the one measured.
	setupRepeats = 3
	// rounds splits each workload's operations; with several workloads
	// the rounds interleave, spreading host drift across all of them.
	rounds = 3
	// roundSlack is how many times its nominal time a round may take
	// before it is stopped and the run counted as failed.
	roundSlack = 2
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type options struct {
	workloads []workloadDef
	seed      int64
	seconds   float64
	trace     bool
	check     bool
	scale     float64
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "rampbench:", err)
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "rampbench:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	scratch := filepath.Join(build, "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "rampbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "rampbench: "+format+"\n", a...) }

	var res result
	if opts.trace {
		res, err = traced(ctx, opts, scratch, filepath.Join(build, "bench-trace.json"), stdout, logf)
	} else {
		res, err = untraced(ctx, opts, root, build, scratch, stdout, logf)
	}
	if err != nil {
		fmt.Fprintln(stderr, "rampbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "rampbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if opts.check && !res.Correct {
		fmt.Fprintln(stderr, "rampbench: check failed")
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("rampbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "workload name, comma-separated names, or all")
	seed := fs.Int64("seed", 1, "seed every workload input derives from")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 runs the traced in-process replay and prints per-layer metrics")
	check := fs.Bool("check", false, "exit non-zero on any failed or wrong answer, and on traced layer sums out of bounds")
	scale := fs.Float64("scale", 1, "multiplies instruction budgets and operation counts (smoke tests use 0.05)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	opts := options{seed: *seed, seconds: *seconds, check: *check, scale: *scale}
	switch *trace {
	case 0:
	case 1:
		opts.trace = true
	default:
		return opts, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if !(opts.seconds > 0) || !(opts.scale > 0) {
		return opts, errors.New("-seconds and -scale must be positive")
	}
	if *names == "all" {
		opts.workloads = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloadByName(strings.TrimSpace(n))
			if !ok {
				return opts, fmt.Errorf("unknown workload %q", n)
			}
			opts.workloads = append(opts.workloads, w)
		}
	}
	return opts, nil
}

// repoRoot finds the repository root (the directory holding cmd/rampd)
// from the working directory upwards.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rampd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/rampd/main.go in the working directory or above it")
		}
		dir = parent
	}
}

// live is one workload's state during an untraced run.
type live struct {
	def    workloadDef
	run    workloadRun
	d      *daemon
	rec    *recorder
	setups []float64
	rss    []float64 // child resident set (MB) sampled during the rounds
}

// untraced measures the end-to-end metrics against rampd child processes.
func untraced(ctx context.Context, opts options, root, build, scratch string, stdout io.Writer,
	logf func(string, ...any)) (result, error) {
	bin := filepath.Join(build, "rampd")
	if err := buildRampd(ctx, root, bin); err != nil {
		return result{}, err
	}
	var ls []*live
	defer func() {
		for _, l := range ls {
			if l.d != nil {
				l.d.stop()
			}
		}
	}()
	for _, def := range opts.workloads {
		l := &live{def: def, run: def.new(opts.seed, opts.scale), rec: &recorder{logf: logf}}
		ls = append(ls, l)
		if err := l.setUp(ctx, bin, scratch); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", def.name, err)
		}
	}

	chase := make([]float64, 0, rounds)
	// Each round runs a fixed share of the workload's operations, which
	// take at most the round's nominal time on the reference host. The
	// deadline, at roundSlack times that, keeps a run within the time the
	// benchmark is budgeted; a round that reaches it leaves work undone, so
	// the run is counted as failed rather than measured on less work.
	slice := time.Duration(opts.seconds / rounds * float64(time.Second))
	for r := 0; r < rounds; r++ {
		chase = append(chase, hostChaseNS())
		for _, l := range ls {
			ops := l.def.opsPerRound(opts.seconds)
			before := l.rec.attempted
			stop := l.d.sampleRSS(&l.rss)
			l.run.round(ctx, l.d.target, ops, time.Now().Add(slice*roundSlack), l.rec)
			stop()
			if done := l.rec.attempted - before; done < ops {
				l.rec.fail("%s round %d stopped at its deadline after %d of %d operations", l.def.name, r+1, done, ops)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	rec := newRunRecord(opts, chase)
	for _, l := range ls {
		if err := l.run.verify(ctx, l.d.target, l.rec); err != nil {
			return result{}, fmt.Errorf("%s verify: %w", l.def.name, err)
		}
		peak, err := l.d.memoryMB("VmHWM")
		if err != nil {
			return result{}, err
		}
		l.d.stop()
		l.d = nil

		r := l.rec
		m := map[string]float64{
			"setup_s": median(l.setups),
			"p50_ms":  percentile(r.lat, 50),
			"p90_ms":  percentile(r.lat, 90),
			"rss_mb":  median(l.rss),
		}
		tail := tailPercentile(len(r.lat))
		wr := workloadRecord{
			Why: l.def.why, Samples: len(r.lat), Attempted: r.attempted, Failed: r.failed,
			SetupS: l.setups, TailPercentile: tail, TailMS: optional(r.lat, tail),
			FirstEventP50MS: optional(r.firstEvent, 50), LoadgenLateP99MS: optional(r.late, 99),
			PeakRSSMB: peak,
		}
		if r.closedOps > 0 {
			wr.CapacityOpsPerS = float64(r.closedOps) / r.closedWall.Seconds()
		}
		rec.Workloads[l.def.name] = wr
		res.Attempted += r.attempted
		res.Failed += r.failed
		prefix := ""
		if len(ls) > 1 {
			prefix = l.def.name + "."
		}
		for _, md := range endToEndMetrics {
			v := finite(m[md.name])
			res.Metrics[prefix+md.name] = metric{Value: v, Unit: md.unit}
			fmt.Fprintf(stdout, "%-18s %-20s %12.4f %s\n", l.def.name, md.name, v, md.unit)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if err := printRecord(stdout, rec); err != nil {
		return result{}, err
	}
	return res, nil
}

// setUp starts rampd and pre-warms it setupRepeats times, timing each from
// process start to pre-warm done, and keeps the last server for the
// measured rounds.
func (l *live) setUp(ctx context.Context, bin, scratch string) error {
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(scratch, fmt.Sprintf("%s-%d", l.def.name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var extra []string
		if l.def.cacheDir {
			extra = []string{"-cache-dir", filepath.Join(dir, "cache")}
		}
		start := time.Now()
		d, err := startDaemon(ctx, bin, filepath.Join(dir, "rampd.log"), extra)
		if err != nil {
			return err
		}
		if err := l.run.setup(ctx, d.target); err != nil {
			d.stop()
			return err
		}
		l.setups = append(l.setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			d.stop()
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		l.d = d
	}
	return nil
}

// traced runs the in-process layer probes and replay for each workload.
func traced(ctx context.Context, opts options, scratch, traceOut string, stdout io.Writer,
	logf func(string, ...any)) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	col := obs.NewCollector(0)
	record := newRunRecord(opts, nil)
	for _, def := range opts.workloads {
		m, rec, err := traceWorkload(ctx, def, opts.seed, opts.scale, scratch, col, logf)
		if err != nil {
			return result{}, fmt.Errorf("%s traced run: %w", def.name, err)
		}
		record.HostChaseNSRound = append(record.HostChaseNSRound, m["host.chase_ns"])
		if m["jobs.dedup_share"] != 0.5 || m["jobs.executed_per_batch"] != batchSize+1 {
			rec.wrongAnswer("job queue dedup share %.3f and %.3f executions per batch, want 0.5 and %d",
				m["jobs.dedup_share"], m["jobs.executed_per_batch"], batchSize+1)
		}
		if opts.check {
			for _, b := range []struct {
				name   string
				lo, hi float64
			}{{"sim.study_coverage", coverageLo, coverageHi}, {"sim.timing_split_ratio", splitLo, splitHi}} {
				if v := m[b.name]; !(v >= b.lo && v <= b.hi) {
					rec.wrongAnswer("%s %s = %.3f outside [%.2f, %.2f]", def.name, b.name, v, b.lo, b.hi)
				}
			}
		}
		res.Attempted += rec.attempted
		res.Failed += rec.failed
		prefix := ""
		if len(opts.workloads) > 1 {
			prefix = def.name + "."
		}
		for _, md := range layerMetrics {
			v := finite(m[md.name])
			res.Metrics[prefix+md.name] = metric{Value: v, Unit: md.unit}
			fmt.Fprintf(stdout, "%-18s %-32s %14.4f %s\n", def.name, md.name, v, md.unit)
		}
		record.Workloads[def.name] = workloadRecord{Why: def.why, Samples: len(rec.lat),
			Attempted: rec.attempted, Failed: rec.failed}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	f, err := os.Create(traceOut)
	if err != nil {
		return result{}, err
	}
	if err := obs.WriteChromeTrace(f, col.Spans()); err != nil {
		f.Close()
		return result{}, err
	}
	if err := f.Close(); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "trace written to %s\n", traceOut)
	return res, printRecord(stdout, record)
}

// runRecord describes the run beside its metrics, so a slow host can be
// told apart from a slow commit.
type runRecord struct {
	Seed             int64                     `json:"seed"`
	Scale            float64                   `json:"scale"`
	Seconds          float64                   `json:"seconds"`
	NProc            int                       `json:"nproc"`
	GOMAXPROCS       int                       `json:"gomaxprocs"`
	RampdGOMAXPROCS  int                       `json:"rampd_gomaxprocs"`
	GoVersion        string                    `json:"go_version"`
	CPUModel         string                    `json:"cpu_model"`
	HostChaseNSRound []float64                 `json:"host_chase_ns_per_round"`
	Workloads        map[string]workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Why              string    `json:"why"`
	Samples          int       `json:"samples"`
	Attempted        int       `json:"attempted"`
	Failed           int       `json:"failed"`
	SetupS           []float64 `json:"setup_s"`
	TailPercentile   float64   `json:"tail_percentile,omitempty"`
	TailMS           float64   `json:"tail_ms,omitempty"`
	FirstEventP50MS  float64   `json:"first_event_p50_ms,omitempty"`
	LoadgenLateP99MS float64   `json:"loadgen_late_p99_ms,omitempty"`
	CapacityOpsPerS  float64   `json:"capacity_ops_per_s,omitempty"`
	PeakRSSMB        float64   `json:"peak_rss_mb,omitempty"`
}

func newRunRecord(opts options, chase []float64) runRecord {
	// rampd is started with this process's environment, so its
	// GOMAXPROCS is the GOMAXPROCS variable if set, else the CPU count.
	rampdProcs := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		rampdProcs = v
	}
	return runRecord{
		Seed: opts.seed, Scale: opts.scale, Seconds: opts.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), RampdGOMAXPROCS: rampdProcs,
		GoVersion: runtime.Version(), CPUModel: cpuModel(), HostChaseNSRound: chase,
		Workloads: map[string]workloadRecord{},
	}
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printRecord(w io.Writer, rec runRecord) error {
	b, err := json.Marshal(struct {
		Record runRecord `json:"record"`
	}{rec})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
