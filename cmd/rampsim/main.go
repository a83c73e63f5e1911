// Command rampsim runs the scaling study of the paper — the SPEC2K-like
// workload suite across the Table 4 technology points — and regenerates
// its figures and headline numbers.
//
// Usage:
//
//	rampsim [-n instructions] [-apps ammp,gcc] [-csv] [-figure 2|3|4|5] [-headline] [-all]
//	        [-parallelism N] [-progress] [-cache-dir DIR] [-trace-out study.trace.json]
//	        [-log-level info] [-log-format text]
//
// With -cache-dir the study's stage artifacts (timing, thermal,
// reliability) persist on disk, so a re-run that changes only downstream
// parameters — e.g. a reliability constant via -scenario — replays from
// the cache instead of re-simulating. Each run appends its artifacts to
// one checksummed segment file per stage under the directory; damaged
// records read as misses, and nothing prunes the directory.
//
// With -trace-out the study's span tree — per-stage, per-cell, and
// cache-lookup timings — is written as a Chrome trace-event JSON file;
// open it in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Progress reports (-progress) and diagnostics share one locked stderr
// logger (-log-level, -log-format), so concurrent lines never interleave.
//
// Without -figure/-headline/-all it prints the per-run summary lines.
// Interrupting the process (Ctrl-C) cancels the study promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	ramp "github.com/ramp-sim/ramp"
	"github.com/ramp-sim/ramp/internal/cli"
)

func main() {
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	if err := runCtx(ctx, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rampsim:", err)
		os.Exit(1)
	}
}

// run keeps the historical entry point for tests; it never cancels.
func run(out io.Writer, args []string) error {
	return runCtx(context.Background(), out, args)
}

func runCtx(ctx context.Context, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("rampsim", flag.ContinueOnError)
	fs.SetOutput(out)
	instructions := fs.Int64("n", 2_000_000, "instructions to simulate per application")
	apps := fs.String("apps", "", "comma-separated benchmark subset (default: all 16)")
	fidelity := fs.String("fidelity", "", "fidelity mode: exact (default), adaptive, or phase")
	mechanisms := fs.String("mechanisms", "", "comma-separated failure mechanisms (default em,sm,tc,tddb; e.g. em,sm,tc,tddb,nbti,hci)")
	figure := fs.Int("figure", 0, "print one figure's data series (2, 3, 4, or 5)")
	headline := fs.Bool("headline", false, "print the headline paper-vs-measured comparison")
	all := fs.Bool("all", false, "print every figure and the headline comparison")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	plot := fs.Bool("plot", false, "render figures as ASCII charts instead of tables")
	jsonOut := fs.Bool("json", false, "emit the full study as a JSON document")
	scenarioPath := fs.String("scenario", "", "JSON experiment specification (overrides -n/-apps)")
	parallelism := fs.Int("parallelism", 0, "max study cells in progress at once (0 = bounded only by the GOMAXPROCS-slot compute pool)")
	progress := fs.Bool("progress", false, "report per-task study progress on stderr")
	cacheDir := fs.String("cache-dir", "", "persist stage artifacts under this directory for incremental re-runs")
	traceOut := fs.String("trace-out", "", "write the study's spans as Chrome trace-event JSON to this file")
	logFlags := cli.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		return err
	}

	cfg := ramp.DefaultConfig()
	cfg.Instructions = *instructions
	profiles, err := selectProfiles(*apps)
	if err != nil {
		return err
	}
	techs := ramp.Technologies()
	if *scenarioPath != "" {
		spec, err := ramp.LoadScenarioFile(*scenarioPath)
		if err != nil {
			return err
		}
		cfg, profiles, techs, err = spec.Resolve(ramp.DefaultConfig())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "scenario: %s\n", spec.Name)
		if spec.Description != "" {
			fmt.Fprintf(out, "  %s\n", spec.Description)
		}
	}
	// The fidelity flag applies after scenario resolution so it also
	// governs scenario runs; empty inherits the scenario/default (exact).
	if *fidelity != "" {
		cfg.Fidelity, err = ramp.ParseFidelityMode(*fidelity)
		if err != nil {
			return err
		}
	}
	// Likewise for the mechanism selection; empty keeps the scenario's (or
	// the paper's default four).
	if *mechanisms != "" {
		cfg.Mechanisms, err = ramp.CanonicalMechanismNames(strings.Split(*mechanisms, ","))
		if err != nil {
			return err
		}
	}
	ropts := []ramp.Option{ramp.WithParallelism(*parallelism)}
	if *progress {
		// Progress goes through the shared logger, not raw stderr, so
		// per-task lines and log records serialise instead of interleaving.
		ropts = append(ropts, ramp.WithProgress(cli.SlogProgress(logger)))
	}
	if *cacheDir != "" {
		ropts = append(ropts, ramp.WithCache(ramp.CacheOptions{Dir: *cacheDir}))
	}
	var collector *ramp.TraceCollector
	if *traceOut != "" {
		collector = ramp.NewTraceCollector(0)
		ropts = append(ropts, ramp.WithTracer(ramp.NewTracer(collector)))
	}
	runner, err := ramp.New(ropts...)
	if err != nil {
		return err
	}
	res, err := runner.Study(ctx, cfg, profiles, techs)
	if err != nil {
		return err
	}
	if collector != nil {
		if err := writeTrace(*traceOut, collector); err != nil {
			return err
		}
		logger.Info("trace written", "path", *traceOut, "spans", len(collector.Spans()))
	}

	render := func(t *ramp.Table) error {
		if *csv {
			return t.RenderCSV(out)
		}
		if *plot {
			if c, err := ramp.ChartFromTable(t); err == nil {
				if err := c.Render(out); err != nil {
					return err
				}
				_, err := fmt.Fprintln(out)
				return err
			}
			// Tables that cannot chart (e.g. the headline) fall through.
		}
		if err := t.Render(out); err != nil {
			return err
		}
		_, err := fmt.Fprintln(out)
		return err
	}

	printFigure := func(n int) error {
		switch n {
		case 2, 3:
			for _, suite := range []ramp.Suite{ramp.SuiteFP, ramp.SuiteInt} {
				var t *ramp.Table
				var err error
				if n == 2 {
					t, err = ramp.Figure2(res, suite)
				} else {
					t, err = ramp.Figure3(res, suite)
				}
				if err != nil {
					return err
				}
				if err := render(t); err != nil {
					return err
				}
			}
		case 4:
			for _, suite := range []ramp.Suite{ramp.SuiteFP, ramp.SuiteInt} {
				t, err := ramp.Figure4(res, suite)
				if err != nil {
					return err
				}
				if err := render(t); err != nil {
					return err
				}
			}
		case 5:
			for _, m := range []ramp.Mechanism{ramp.EM, ramp.SM, ramp.TDDB, ramp.TC} {
				for _, suite := range []ramp.Suite{ramp.SuiteFP, ramp.SuiteInt} {
					t, err := ramp.Figure5(res, suite, m)
					if err != nil {
						return err
					}
					if err := render(t); err != nil {
						return err
					}
				}
			}
		default:
			return fmt.Errorf("unknown figure %d (want 2, 3, 4, or 5)", n)
		}
		return nil
	}

	switch {
	case *jsonOut:
		return ramp.WriteJSON(out, res)
	case *all:
		for _, n := range []int{2, 3, 4, 5} {
			if err := printFigure(n); err != nil {
				return err
			}
		}
		fallthrough
	case *headline:
		h, err := ramp.ComputeHeadline(res)
		if err != nil {
			return err
		}
		return render(h.Render())
	case *figure != 0:
		return printFigure(*figure)
	default:
		return printSummary(out, res)
	}
}

// writeTrace exports the collected spans as a Chrome trace-event file.
func writeTrace(path string, c *ramp.TraceCollector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ramp.WriteChromeTrace(f, c.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func selectProfiles(apps string) ([]ramp.Profile, error) {
	if apps == "" {
		return ramp.Profiles(), nil
	}
	var out []ramp.Profile
	for _, name := range strings.Split(apps, ",") {
		p, err := ramp.ProfileByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func printSummary(out io.Writer, res *ramp.StudyResult) error {
	for ti, tech := range res.Techs {
		fmt.Fprintf(out, "== %s ==\n", tech.Name)
		for _, a := range res.AppsAt(ti) {
			fit := res.FIT(a)
			mech := fit.ByMechanism()
			fmt.Fprintf(out,
				"  %-9s %-7v IPC=%.2f P=%5.1fW Tmax=%.1fK sink=%.1fK FIT=%6.0f [EM %5.0f SM %5.0f TDDB %5.0f TC %5.0f] MTTF=%.1fy\n",
				a.App, a.Suite, a.IPC, a.AvgTotalW, a.MaxStructTempK, a.SinkTempK,
				fit.Total(), mech[ramp.EM], mech[ramp.SM], mech[ramp.TDDB], mech[ramp.TC],
				fit.MTTFYears())
		}
		wfit := res.WorstFIT(ti)
		fmt.Fprintf(out, "  %-17s FIT=%6.0f\n", "max (worst-case)", wfit.Total())
		avgMech := res.SuiteAverageMech(ti, 0)
		fmt.Fprintf(out, "  suite-avg FIT: all=%.0f FP=%.0f INT=%.0f  [EM %.0f SM %.0f TDDB %.0f TC %.0f]\n",
			res.SuiteAverageFIT(ti, 0),
			res.SuiteAverageFIT(ti, ramp.SuiteFP),
			res.SuiteAverageFIT(ti, ramp.SuiteInt),
			avgMech[ramp.EM], avgMech[ramp.SM], avgMech[ramp.TDDB], avgMech[ramp.TC])
	}
	return nil
}
