package ramp_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	ramp "github.com/ramp-sim/ramp"
)

func runnerTestInputs(t *testing.T) (ramp.Config, []ramp.Profile, []ramp.Technology) {
	t.Helper()
	cfg := ramp.DefaultConfig()
	cfg.Instructions = 40_000
	return cfg, ramp.Profiles()[:2], ramp.Technologies()[:2]
}

// TestRunnerStudyMatchesDeprecatedAPI: the facade must be a pure
// re-packaging — Runner.Study and the deprecated RunStudyContext produce
// deeply equal results.
func TestRunnerStudyMatchesDeprecatedAPI(t *testing.T) {
	cfg, profiles, techs := runnerTestInputs(t)
	runner, err := ramp.New(ramp.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runner.Study(context.Background(), cfg, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ramp.RunStudyContext(context.Background(), cfg, profiles, techs,
		ramp.StudyOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("Runner.Study differs from RunStudyContext")
	}
}

// TestRunnerOptions exercises every functional option together, plus
// option-error propagation from an invalid cache configuration.
func TestRunnerOptions(t *testing.T) {
	cfg, profiles, techs := runnerTestInputs(t)
	var progressed atomic.Int64
	collector := ramp.NewTraceCollector(0)
	runner, err := ramp.New(
		ramp.WithParallelism(2),
		ramp.WithProgress(func(ramp.StudyProgress) { progressed.Add(1) }),
		ramp.WithTracer(ramp.NewTracer(collector)),
		ramp.WithCache(ramp.CacheOptions{MaxEntries: 32, Dir: t.TempDir()}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := runner.CacheStats(); !ok {
		t.Fatal("WithCache did not attach a cache")
	}
	if _, err := runner.Study(context.Background(), cfg, profiles, techs); err != nil {
		t.Fatal(err)
	}
	if progressed.Load() == 0 {
		t.Errorf("WithProgress callback never fired")
	}
	slots := 0
	for _, sp := range collector.Spans() {
		if sp.Name == "sched.slot" {
			slots++
		}
	}
	if slots == 0 {
		t.Errorf("WithTracer collector observed no compute-pool slot spans")
	}
	stats, ok := runner.CacheStats()
	if !ok || stats.Timing.Puts == 0 {
		t.Errorf("study did not populate the stage cache: %+v", stats)
	}

	// A cacheless runner reports no stats.
	bare, err := ramp.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bare.CacheStats(); ok {
		t.Errorf("cacheless runner claims cache stats")
	}

	// Option errors abort construction.
	if _, err := ramp.New(ramp.WithCache(ramp.CacheOptions{Dir: "\x00bad"})); err == nil {
		t.Errorf("invalid cache dir did not fail New")
	}
}

// TestRunnerTimingCached: repeated Runner.Timing through a cache returns
// the identical artifact without re-simulating.
func TestRunnerTimingCached(t *testing.T) {
	cfg, profiles, _ := runnerTestInputs(t)
	runner, err := ramp.New(ramp.WithCache(ramp.CacheOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	first, err := runner.Timing(context.Background(), cfg, profiles[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err := runner.Timing(context.Background(), cfg, profiles[0])
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("second Timing call was not served from the cache")
	}
}

// TestRunnerStreamStudyOrdering: the stream must deliver the first cell
// event strictly before the terminal event, cover the whole grid, and end
// with exactly one terminal event carrying the same result a blocking
// Study produces.
func TestRunnerStreamStudyOrdering(t *testing.T) {
	cfg, profiles, techs := runnerTestInputs(t)
	runner, err := ramp.New(ramp.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	events, err := runner.StreamStudy(context.Background(), cfg, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	var apps, terminals int
	var res *ramp.StudyResult
	for ev := range events {
		switch {
		case ev.App != nil:
			if terminals != 0 {
				t.Errorf("cell event after the terminal event")
			}
			apps++
			if ev.Source == "" {
				t.Errorf("cell event without provenance")
			}
		default:
			terminals++
			if ev.Err != nil {
				t.Fatalf("stream failed: %v", ev.Err)
			}
			res = ev.Result
		}
	}
	want := len(profiles) * len(techs)
	if apps != want {
		t.Errorf("streamed %d cell events, want %d", apps, want)
	}
	if terminals != 1 {
		t.Fatalf("got %d terminal events, want 1", terminals)
	}
	blocking, err := runner.Study(context.Background(), cfg, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blocking, res) {
		t.Errorf("streamed terminal result differs from blocking Study")
	}
}

// TestRunnerStreamStudyCancel: cancelling mid-stream closes the channel
// after a terminal event carrying ctx.Err(), and a cached re-run still
// produces correct numbers (the cache holds only complete artifacts).
func TestRunnerStreamStudyCancel(t *testing.T) {
	cfg, profiles, techs := runnerTestInputs(t)
	runner, err := ramp.New(ramp.WithParallelism(2), ramp.WithCache(ramp.CacheOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := runner.StreamStudy(ctx, cfg, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for ev := range events {
		if ev.App != nil {
			cancel() // first cell: abort the rest of the grid
			continue
		}
		sawErr = ev.Err
	}
	if sawErr == nil {
		// The terminal event may be dropped when the consumer raced the
		// cancellation; the channel closing is the load-bearing part.
		t.Log("terminal event dropped on cancellation (allowed)")
	} else if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("terminal error = %v, want context.Canceled", sawErr)
	}

	resumed, err := runner.Study(context.Background(), cfg, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := ramp.RunStudyContext(context.Background(), cfg, profiles, techs,
		ramp.StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reference, resumed) {
		t.Errorf("post-cancel cached study differs from a clean run")
	}
}

// TestRunnerStreamStudyBadConfig: an invalid config fails fast, before any
// channel is returned.
func TestRunnerStreamStudyBadConfig(t *testing.T) {
	runner, err := ramp.New()
	if err != nil {
		t.Fatal(err)
	}
	bad := ramp.DefaultConfig()
	bad.Instructions = -1
	if _, err := runner.StreamStudy(context.Background(), bad,
		ramp.Profiles()[:1], ramp.Technologies()[:1]); err == nil {
		t.Errorf("StreamStudy accepted an invalid config")
	}
}

// TestRunnerWithTracer: a Runner-attached tracer must capture the study's
// span tree — one study root, one cell span per (profile × technology) —
// and an untraced Runner must record nothing.
func TestRunnerWithTracer(t *testing.T) {
	cfg, profiles, techs := runnerTestInputs(t)
	collector := ramp.NewTraceCollector(0)
	runner, err := ramp.New(
		ramp.WithParallelism(2),
		ramp.WithTracer(ramp.NewTracer(collector)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Study(context.Background(), cfg, profiles, techs); err != nil {
		t.Fatal(err)
	}
	spans := collector.Spans()
	var study, cells int
	for _, sp := range spans {
		switch sp.Name {
		case "sim.study":
			study++
		case "sim.cell":
			cells++
		}
	}
	if study != 1 {
		t.Errorf("study spans = %d, want 1", study)
	}
	if want := len(profiles) * len(techs); cells != want {
		t.Errorf("cell spans = %d, want %d", cells, want)
	}

	// The trace export must serialise the collected spans.
	var buf strings.Builder
	if err := ramp.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Errorf("chrome trace missing traceEvents array: %q", buf.String()[:80])
	}

	// StreamStudy flows through the same tracer.
	before := len(spans)
	events, err := runner.StreamStudy(context.Background(), cfg, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	for range events {
	}
	if after := len(collector.Spans()); after <= before {
		t.Errorf("StreamStudy added no spans (%d -> %d)", before, after)
	}
}

// TestRunnerMCStudy: the Monte Carlo facade samples the whole grid,
// produces parallelism-invariant summaries, and streams incremental
// estimates through onEvent.
func TestRunnerMCStudy(t *testing.T) {
	cfg, profiles, techs := runnerTestInputs(t)
	mcfg := ramp.MCConfig{Samples: 2000, Seed: 41, Percentiles: []float64{5, 50, 95}}

	runner1, err := ramp.New(ramp.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var finals atomic.Int64
	got, err := runner1.MCStudy(context.Background(), cfg, profiles, techs, mcfg,
		func(ev ramp.MCEvent) {
			if ev.Final {
				finals.Add(1)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	want := len(profiles) * len(techs)
	if len(got.Cells) != want || got.TotalReplicas != want*2000 {
		t.Fatalf("cells = %d, replicas = %d", len(got.Cells), got.TotalReplicas)
	}
	if int(finals.Load()) != want {
		t.Errorf("final events = %d, want %d", finals.Load(), want)
	}
	for _, c := range got.Cells {
		if !(c.MeanYears > 0) || !(c.FITTotal > 0) || len(c.Percentiles) != 3 {
			t.Fatalf("bad cell: %+v", c)
		}
		p50 := c.Percentiles[1]
		if !(p50.CI.Lo <= p50.Years && p50.Years <= p50.CI.Hi) {
			t.Errorf("median %v outside its CI %v", p50.Years, p50.CI)
		}
	}

	runner8, err := ramp.New(ramp.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	again, err := runner8.MCStudy(context.Background(), cfg, profiles, techs, mcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Errorf("MCStudy not parallelism-invariant")
	}
}
