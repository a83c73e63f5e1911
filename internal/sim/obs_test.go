package sim

import (
	"context"
	"testing"

	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/scaling"
)

// TestStudySpans runs a small cached study under a tracer and checks the
// span tree: one study root, one cell span per (profile × technology) on
// its own track, pipeline-stage spans beneath them, and cache-lookup spans
// annotated with their result.
func TestStudySpans(t *testing.T) {
	cfg := testConfig()
	cfg.Instructions = 60_000
	profiles := testProfiles(t)[:2]
	techs := scaling.Generations()[:2]

	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	cache := testStageCache(t)
	if _, err := RunStudyContext(ctx, cfg, profiles, techs, StudyOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}

	spans := col.Spans()
	byName := map[string][]*obs.Span{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if n := len(byName[obs.SpanStudy]); n != 1 {
		t.Fatalf("study spans = %d, want 1", n)
	}
	study := byName[obs.SpanStudy][0]

	wantCells := len(profiles) * len(techs)
	cells := byName[obs.SpanCell]
	if len(cells) != wantCells {
		t.Fatalf("cell spans = %d, want %d", len(cells), wantCells)
	}
	tracks := map[uint64]bool{}
	for _, c := range cells {
		if c.Parent != study.ID {
			t.Errorf("cell span %d is not a child of the study span", c.ID)
		}
		if c.Track == study.Track || tracks[c.Track] {
			t.Errorf("cell span %d does not have its own track", c.ID)
		}
		tracks[c.Track] = true
		attrs := attrMap(c)
		if attrs["app"] == "" || attrs["tech"] == "" || attrs["source"] != CellComputed {
			t.Errorf("cell attrs = %v", attrs)
		}
	}

	// A cold cached study computes every stage once per consumer.
	if n := len(byName[obs.SpanTiming]); n != len(profiles) {
		t.Errorf("timing spans = %d, want %d", n, len(profiles))
	}
	// Base cells may re-run the thermal stage for power-calibration
	// refinement passes, so the thermal span count is a lower bound.
	if n := len(byName[obs.SpanThermal]); n < wantCells {
		t.Errorf("thermal spans = %d, want >= %d", n, wantCells)
	}
	if n := len(byName[obs.SpanFIT]); n != wantCells {
		t.Errorf("fit spans = %d, want %d", n, wantCells)
	}
	for _, sp := range byName[obs.SpanCacheGet] {
		attrs := attrMap(sp)
		if attrs["stage"] == "" || (attrs["result"] != "hit" && attrs["result"] != "miss") {
			t.Errorf("cache get attrs = %v", attrs)
		}
	}
	// Cold run: every fit-cache lookup misses, then every cell puts.
	if n := len(byName[obs.SpanCachePut]); n < wantCells {
		t.Errorf("cache put spans = %d, want >= %d", n, wantCells)
	}
	for _, sp := range spans {
		if sp.End.Before(sp.Start) {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
}

func attrMap(sp *obs.Span) map[string]string {
	m := make(map[string]string)
	for _, a := range sp.Attrs() {
		m[a.Key] = a.Value
	}
	return m
}

// TestStudyUntracedIsSpanFree pins the zero-overhead contract: without a
// tracer in the context, the study must not emit any spans (there is no
// global tracer to leak through).
func TestStudyUntracedIsSpanFree(t *testing.T) {
	cfg := testConfig()
	cfg.Instructions = 30_000
	profiles := testProfiles(t)[:1]
	techs := scaling.Generations()[:1]
	if _, err := RunStudyContext(context.Background(), cfg, profiles, techs, StudyOptions{}); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert beyond "it ran": the nil-tracer fast path is
	// exercised and the obs package's alloc test pins its cost.
}

// TestStageCacheObserver checks that cache operations are counted per
// stage store in StageCache.Stats.
func TestStageCacheObserver(t *testing.T) {
	cfg := testConfig()
	cfg.Instructions = 60_000
	profiles := testProfiles(t)[:1]
	techs := scaling.Generations()[:2]

	cache, err := NewStageCache(StageCacheOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := RunStudyContext(ctx, cfg, profiles, techs, StudyOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	nCells := int64(len(profiles) * len(techs))
	for _, c := range []struct {
		label     string
		got, want int64
	}{
		{"timing puts", st.Timing.Puts, int64(len(profiles))},
		{"thermal puts", st.Thermal.Puts, nCells},
		{"fit puts", st.FIT.Puts, nCells},
		{"fit misses", st.FIT.Misses, nCells},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (all: %+v)", c.label, c.got, c.want, st)
		}
	}
	if st.Timing.MemHits+st.Timing.Misses == 0 {
		t.Errorf("no timing lookups counted: %+v", st)
	}
}
