// Command ramplife drives the library's lifetime extensions: Monte Carlo
// lifetime distributions (relaxing the SOFR constant-rate assumption),
// dynamic reliability management, and chip-multiprocessor evaluation with
// activity migration.
//
// Usage:
//
//	ramplife -mode mc  -app crafty [-tech "65nm (1.0V)"] [-samples 50000]
//	ramplife -mode drm -app crafty [-budget 16000]
//	ramplife -mode cmp -apps ammp,crafty [-migrate 100]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	ramp "github.com/ramp-sim/ramp"
	"github.com/ramp-sim/ramp/internal/cli"
)

func main() {
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	if err := runCtx(ctx, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ramplife:", err)
		os.Exit(1)
	}
}

// run keeps the historical entry point for tests; it never cancels.
func run(out io.Writer, args []string) error {
	return runCtx(context.Background(), out, args)
}

// session bundles the per-invocation execution environment: cancellation,
// the timing parallelism bound, and the optional progress sink.
type session struct {
	ctx  context.Context
	opts ramp.StudyOptions
}

func runCtx(ctx context.Context, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("ramplife", flag.ContinueOnError)
	fs.SetOutput(out)
	mode := fs.String("mode", "", "mc | drm | cmp | schedule | cycles | remap")
	app := fs.String("app", "crafty", "benchmark for mc/drm modes")
	apps := fs.String("apps", "ammp,crafty", "comma-separated benchmarks for cmp mode")
	techName := fs.String("tech", "65nm (1.0V)", "technology point")
	n := fs.Int64("n", 400_000, "instructions per application")
	samples := fs.Int("samples", 50_000, "Monte Carlo trials (mc mode)")
	budget := fs.Float64("budget", 16_000, "FIT budget (drm mode)")
	migrate := fs.Int("migrate", 100, "migration period in µs, 0 = static (cmp mode)")
	parallelism := fs.Int("parallelism", 0, "max timing runs, study cells or Monte Carlo batches in progress at once (0 = bounded only by the GOMAXPROCS-slot compute pool)")
	progress := fs.Bool("progress", false, "report per-task progress on stderr")
	mechanisms := fs.String("mechanisms", "", "comma-separated failure mechanisms (default em,sm,tc,tddb)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := ramp.DefaultConfig()
	cfg.Instructions = *n
	if *mechanisms != "" {
		names, err := ramp.CanonicalMechanismNames(strings.Split(*mechanisms, ","))
		if err != nil {
			return err
		}
		cfg.Mechanisms = names
	}
	tech, err := ramp.TechnologyByName(*techName)
	if err != nil {
		return err
	}
	s := session{ctx: ctx, opts: ramp.StudyOptions{Parallelism: *parallelism}}
	if *progress {
		s.opts.OnProgress = cli.StderrProgress()
	}
	switch *mode {
	case "mc":
		return runMC(s, out, cfg, *app, tech, *samples)
	case "drm":
		return runDRM(s, out, cfg, *app, tech, *budget)
	case "cmp":
		return runCMP(s, out, cfg, strings.Split(*apps, ","), tech, *migrate)
	case "schedule":
		return runSchedule(s, out, cfg, *app, tech)
	case "cycles":
		return runCycles(s, out, cfg, *app, tech)
	case "remap":
		return runRemap(s, out, cfg, *app, *budget)
	default:
		return fmt.Errorf("pick a mode with -mode mc|drm|cmp|schedule|cycles|remap")
	}
}

func (s session) timing(cfg ramp.Config, app string) (*ramp.ActivityTrace, error) {
	prof, err := ramp.ProfileByName(strings.TrimSpace(app))
	if err != nil {
		return nil, err
	}
	return ramp.RunTimingContext(s.ctx, cfg, prof)
}

// timings runs the timing stage for several benchmarks on the bounded pool.
func (s session) timings(cfg ramp.Config, apps []string) ([]*ramp.ActivityTrace, error) {
	profiles := make([]ramp.Profile, len(apps))
	for i, a := range apps {
		p, err := ramp.ProfileByName(strings.TrimSpace(a))
		if err != nil {
			return nil, err
		}
		profiles[i] = p
	}
	return ramp.RunTimings(s.ctx, cfg, profiles, s.opts)
}

func runMC(s session, out io.Writer, cfg ramp.Config, app string, tech ramp.Technology, samples int) error {
	prof, err := ramp.ProfileByName(strings.TrimSpace(app))
	if err != nil {
		return err
	}
	techs := []ramp.Technology{ramp.BaseTechnology()}
	if tech.Name != ramp.BaseTechnology().Name {
		techs = append(techs, tech)
	}
	// One runner with an in-memory stage cache: the second model's study
	// replays the first's timing and thermal artifacts.
	opts := []ramp.Option{
		ramp.WithParallelism(s.opts.Parallelism),
		ramp.WithCache(ramp.CacheOptions{}),
	}
	if s.opts.OnProgress != nil {
		opts = append(opts, ramp.WithProgress(s.opts.OnProgress))
	}
	runner, err := ramp.New(opts...)
	if err != nil {
		return err
	}
	t := &ramp.Table{
		Title: fmt.Sprintf("%s @ %s: lifetime distribution (%d trials)", app, tech.Name, samples),
		Header: []string{"model", "MTTF (y)", "median (y)", "5th pct (y)", "95th pct (y)",
			"median 95% CI (y)"},
	}
	for _, m := range []struct{ name, model string }{
		{"exponential (SOFR)", "sofr"},
		{"wear-out", "wearout"},
	} {
		res, err := runner.MCStudy(s.ctx, cfg, []ramp.Profile{prof}, techs, ramp.MCConfig{
			Samples:     samples,
			Model:       m.model,
			Seed:        2004,
			Percentiles: []float64{5, 50, 95},
		}, nil)
		if err != nil {
			return err
		}
		cell, err := mcCellFor(res, prof.Name, tech.Name)
		if err != nil {
			return err
		}
		p5, p50, p95 := cell.Percentiles[0], cell.Percentiles[1], cell.Percentiles[2]
		if err := t.AddRow(m.name,
			fmt.Sprintf("%.1f", cell.MeanYears),
			fmt.Sprintf("%.1f", p50.Years),
			fmt.Sprintf("%.1f", p5.Years),
			fmt.Sprintf("%.1f", p95.Years),
			fmt.Sprintf("[%.1f, %.1f]", p50.CI.Lo, p50.CI.Hi)); err != nil {
			return err
		}
	}
	return t.Render(out)
}

// mcCellFor selects one (application × technology) cell of an MC study.
func mcCellFor(res *ramp.MCResult, app, techName string) (ramp.MCCell, error) {
	for _, c := range res.Cells {
		if c.App == app && c.Tech == techName {
			return c, nil
		}
	}
	return ramp.MCCell{}, fmt.Errorf("no MC cell for %s @ %s", app, techName)
}

func runDRM(s session, out io.Writer, cfg ramp.Config, app string, tech ramp.Technology, budget float64) error {
	tr, err := s.timing(cfg, app)
	if err != nil {
		return err
	}
	pol := ramp.DRMPolicy{
		Ladder:         ramp.DefaultLadder(tech),
		BudgetFIT:      budget,
		EpochIntervals: 50,
		Headroom:       0.9,
		StartLevel:     2,
	}
	res, err := ramp.RunDRM(cfg, tr, tech, ramp.ReferenceConstants(), pol, 0, 1)
	if err != nil {
		return err
	}
	status := "met"
	if !res.MetBudget {
		status = "MISSED"
	}
	fmt.Fprintf(out, "%s @ %s under a %.0f-FIT budget:\n", app, tech.Name, budget)
	fmt.Fprintf(out, "  sustained frequency %.2f GHz  avg FIT %.0f (budget %s)\n",
		res.AvgFreqGHz, res.AvgFIT, status)
	fmt.Fprintf(out, "  ladder switches %d  max temp %.1f K\n", res.Switches, res.MaxStructTempK)
	for level, share := range res.TimeShare {
		if share == 0 {
			continue
		}
		fmt.Fprintf(out, "  level %d: %.0f%% of time\n", level, share*100)
	}
	return nil
}

func runCMP(s session, out io.Writer, cfg ramp.Config, apps []string, tech ramp.Technology, migrate int) error {
	if len(apps) < 2 {
		return fmt.Errorf("cmp mode needs at least 2 apps, got %d", len(apps))
	}
	traces, err := s.timings(cfg, apps)
	if err != nil {
		return err
	}
	mc := ramp.CMPConfig{Base: cfg, Cores: len(apps), MigrateIntervals: migrate}
	res, err := ramp.EvaluateCMPContext(s.ctx, mc, traces, tech, 341, nil)
	if err != nil {
		return err
	}
	consts := ramp.ReferenceConstants()
	fmt.Fprintf(out, "%d-core CMP @ %s (migration every %d µs):\n", len(apps), tech.Name, migrate)
	var spreadLo, spreadHi = math.Inf(1), math.Inf(-1)
	for c := range res.PerCore {
		pc := res.PerCore[c]
		fmt.Fprintf(out, "  core %d: apps %v  power %.1f W  avg-hot %.1f K  Tmax %.1f K\n",
			c, pc.Apps, pc.AvgPowerW, pc.AvgHotTempK, pc.MaxTempK)
		if pc.AvgHotTempK < spreadLo {
			spreadLo = pc.AvgHotTempK
		}
		if pc.AvgHotTempK > spreadHi {
			spreadHi = pc.AvgHotTempK
		}
	}
	fmt.Fprintf(out, "  chip: power %.1f W  Tmax %.1f K  FIT %.0f  temp spread %.1f K  migrations %d\n",
		res.AvgPowerW, res.MaxTempK, res.ChipFIT(consts), spreadHi-spreadLo, res.Migrations)
	return nil
}

// runSchedule projects deployment lifetime under a realistic day/night
// duty cycle: the named workload during the working day, a light load in
// the evening, and near-idle overnight.
func runSchedule(s session, out io.Writer, cfg ramp.Config, app string, tech ramp.Technology) error {
	tr, err := s.timing(cfg, app)
	if err != nil {
		return err
	}
	base, err := ramp.EvaluateTech(cfg, tr, ramp.BaseTechnology(), 0, 1)
	if err != nil {
		return err
	}
	point := base
	if tech.Name != ramp.BaseTechnology().Name {
		point, err = ramp.EvaluateTech(cfg, tr, tech, base.SinkTempK, 1)
		if err != nil {
			return err
		}
	}
	busy := point.RawFIT.Calibrated(ramp.ReferenceConstants()).Total()
	day := ramp.AgingSchedule{Phases: []ramp.AgingPhase{
		{Name: app, HoursPerDay: 9, FIT: busy},
		{Name: "light load", HoursPerDay: 7, FIT: busy * 0.45},
		{Name: "idle", HoursPerDay: 8, FIT: busy * 0.15},
	}}
	proj, err := ramp.ProjectAging(day)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s @ %s daily duty cycle:\n", app, tech.Name)
	for _, p := range day.Phases {
		fmt.Fprintf(out, "  %-11s %4.0f h/day at %6.0f FIT  (%.0f%% of damage)\n",
			p.Name, p.HoursPerDay, p.FIT, proj.DamageShare[p.Name]*100)
	}
	fmt.Fprintf(out, "  effective FIT %.0f -> projected lifetime %.1f years\n",
		proj.EffectiveFIT, proj.LifetimeYears)
	whatIf, err := ramp.AgingMitigations(day, 0.5)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  best mitigation: halve the %q phase rate -> +%.1f years\n",
		whatIf[0].Phase, whatIf[0].GainYears)
	return nil
}

// runCycles measures small thermal cycles — the §2 open problem — by
// recording the hottest structure's temperature trace for the workload
// as-is and for a phased (bursty) variant, and comparing rainflow damage
// indices.
func runCycles(s session, out io.Writer, cfg ramp.Config, app string, tech ramp.Technology) error {
	cfg.RecordThermalTrace = true
	prof, err := ramp.ProfileByName(strings.TrimSpace(app))
	if err != nil {
		return err
	}
	phased := prof
	phased.PhaseInstrs = cfg.Instructions / 20
	phased.PhaseMemScale = 8

	analyse := func(p ramp.Profile) (ramp.CycleSummary, float64, float64, error) {
		tr, err := ramp.RunTimingContext(s.ctx, cfg, p)
		if err != nil {
			return ramp.CycleSummary{}, 0, 0, err
		}
		base, err := ramp.EvaluateTech(cfg, tr, ramp.BaseTechnology(), 0, 1)
		if err != nil {
			return ramp.CycleSummary{}, 0, 0, err
		}
		point := base
		if tech.Name != ramp.BaseTechnology().Name {
			point, err = ramp.EvaluateTech(cfg, tr, tech, base.SinkTempK, 1)
			if err != nil {
				return ramp.CycleSummary{}, 0, 0, err
			}
		}
		params := ramp.DefaultCycleParams()
		params.MinRangeK = 0.01
		durMs := float64(len(point.TempTraceK)) / 1000 // one sample per µs
		sum, err := ramp.AnalyzeCycles(point.TempTraceK, durMs/1000, params)
		return sum, point.MaxStructTempK, durMs, err
	}
	steady, steadyMax, steadyMs, err := analyse(prof)
	if err != nil {
		return err
	}
	bursty, burstyMax, burstyMs, err := analyse(phased)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s @ %s small-thermal-cycle analysis (rainflow):\n", app, tech.Name)
	fmt.Fprintf(out, "  steady : %6.1f cycles/ms  mean swing %.3f K  max %.3f K  Tmax %.1f K  damage index %.3g\n",
		steady.Cycles/steadyMs, steady.MeanRangeK, steady.MaxRangeK, steadyMax, steady.DamageIndex)
	fmt.Fprintf(out, "  phased : %6.1f cycles/ms  mean swing %.3f K  max %.3f K  Tmax %.1f K  damage index %.3g\n",
		bursty.Cycles/burstyMs, bursty.MeanRangeK, bursty.MaxRangeK, burstyMax, bursty.DamageIndex)
	if steady.DamageIndex > 0 {
		fmt.Fprintf(out, "  phase behaviour multiplies the small-cycle damage index by %.1fx\n",
			bursty.DamageIndex/steady.DamageIndex)
	}
	fmt.Fprintln(out, "  (relative index only: the paper notes no validated small-cycle models exist)")
	return nil
}

// runRemap prints the derating schedule: for each technology point, the
// fastest below-nominal operating point that keeps the workload within the
// FIT budget — the cost of remapping one design across generations.
func runRemap(s session, out io.Writer, cfg ramp.Config, app string, budget float64) error {
	tr, err := s.timing(cfg, app)
	if err != nil {
		return err
	}
	advice, err := ramp.AdviseRemap(cfg, tr, ramp.Technologies(),
		ramp.ReferenceConstants(), budget, 0, 1)
	if err != nil {
		return err
	}
	t := &ramp.Table{
		Title:  fmt.Sprintf("Remap derating schedule for %s at a %.0f-FIT budget", app, budget),
		Header: []string{"tech", "nominal FIT", "feasible?", "best point", "FIT", "derate"},
	}
	for _, a := range advice {
		point, fit := "none", "-"
		if a.BestFreqGHz > 0 {
			point = fmt.Sprintf("%.2fV / %.2fGHz", a.BestVddV, a.BestFreqGHz)
			fit = fmt.Sprintf("%.0f", a.BestFIT)
		}
		feasible := "no"
		if a.FeasibleAtNominal {
			feasible = "yes"
		}
		if err := t.AddRow(a.Tech.Name, fmt.Sprintf("%.0f", a.NominalFIT),
			feasible, point, fit, fmt.Sprintf("%.0f%%", a.DeratePct)); err != nil {
			return err
		}
	}
	return t.Render(out)
}
