package sim

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/obs"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/workload"
)

// slotUse returns how many compute-pool slot spans col holds and the
// most of them that overlapped at any instant. The pool ends a slot's span
// before passing the slot on, so the overlap is the number of slots held
// at once.
func slotUse(col *obs.Collector) (n, peak int) {
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for _, sp := range col.Spans() {
		if sp.Name == obs.SpanSlot {
			n++
			edges = append(edges, edge{sp.Start, 1}, edge{sp.End, -1})
		}
	}
	// Ends sort before starts at the same instant.
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].delta < edges[j].delta
	})
	cur := 0
	for _, e := range edges {
		cur += e.delta
		peak = max(peak, cur)
	}
	return n, peak
}

func profilesNamed(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	out := make([]workload.Profile, len(names))
	for i, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// TestStudiesShareComputePool runs six cold 2-app × 5-tech studies and two
// 2 000-sample Monte Carlo studies at once on one stage cache, all
// under one tracer: three app pairs, each studied with the
// default and the +nbti mechanism set, so studies both lead and join each
// other's stage work. However many studies are in progress, no more
// units of stage work than GOMAXPROCS may ever run at once.
func TestStudiesShareComputePool(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Instructions = 100_000
	techs := scaling.Generations()
	pairs := [][]workload.Profile{
		profilesNamed(t, "ammp", "gzip"),
		profilesNamed(t, "crafty", "mesa"),
		profilesNamed(t, "applu", "bzip2"),
	}
	cache := testStageCache(t)
	opts := StudyOptions{Cache: cache}
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))

	var wg sync.WaitGroup
	for s := 0; s < 6; s++ {
		c := cfg
		if s%2 == 1 {
			c.Mechanisms = []string{"em", "sm", "tddb", "tc", "nbti"}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunStudyContext(ctx, c, pairs[s/2], techs, opts); err != nil {
				t.Error(err)
			}
		}()
	}
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mcfg := MCConfig{Samples: 2000, Seed: int64(m + 1)}
			if _, err := RunMCStudyContext(ctx, cfg, mcfg, pairs[m], techs, opts, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	_, peak := slotUse(col)
	if limit := runtime.GOMAXPROCS(0); peak > limit || peak < 1 {
		t.Errorf("peak stage work in flight = %d, want 1..GOMAXPROCS (%d)", peak, limit)
	}
	if ps := sched.Default.Stats(); ps.QueueDepth != 0 || ps.InFlight != 0 {
		t.Errorf("pool gauges after every study = %+v, want 0 queued and 0 in flight", ps)
	}
}

// TestStudyParallelismOneRunsOneLeaf: at Parallelism 1 a study has one
// cell in progress at a time, and a cell's steps run in sequence, so at
// most one unit of its work holds a compute slot at once. On a cold cache
// the units are one timing run per profile, a thermal and a FIT step per
// cell, the qualification and one worst case per technology.
func TestStudyParallelismOneRunsOneLeaf(t *testing.T) {
	cfg := testConfig()
	cfg.Instructions = 60_000
	profiles := testProfiles(t)[:2]
	techs := scaling.Generations()[:3]
	col := obs.NewCollector(0)
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(col))
	if _, err := RunStudyContext(ctx, cfg, profiles, techs,
		StudyOptions{Parallelism: 1, Cache: testStageCache(t)}); err != nil {
		t.Fatal(err)
	}
	units, peak := slotUse(col)
	if peak != 1 {
		t.Errorf("peak stage work in flight = %d, want 1", peak)
	}
	n, nt := len(profiles), len(techs)
	if want := n + 2*n*nt + 1 + nt; units != want {
		t.Errorf("stage work units = %d, want %d", units, want)
	}
}

// TestCellKeysMatchPublicKeys: the per-study key derivation — the timing
// key hashed once per profile, each cell's thermal and FIT keys derived
// from it — equals ThermalKey and FITKey for every default technology,
// under the default mechanism set and all registered mechanisms.
func TestCellKeysMatchPublicKeys(t *testing.T) {
	var all []string
	for _, m := range core.RegisteredMechanisms() {
		all = append(all, m.Name)
	}
	prof := testProfiles(t)[0]
	for _, mechs := range [][]string{nil, all} {
		cfg := DefaultConfig()
		cfg.Mechanisms = mechs
		canon, err := canonicalizeConfigMechanisms(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := &studyRun{cfg: canon, timingKeys: []func() (string, error){
			sync.OnceValues(func() (string, error) { return TimingKey(canon, prof) }),
		}}
		for _, tech := range scaling.Generations() {
			thermalKey, fitKey, err := s.cellKeys(0, tech)
			if err != nil {
				t.Fatal(err)
			}
			wantThermal, err := ThermalKey(cfg, prof, tech)
			if err != nil {
				t.Fatal(err)
			}
			wantFIT, err := FITKey(cfg, prof, tech)
			if err != nil {
				t.Fatal(err)
			}
			if thermalKey != wantThermal || fitKey != wantFIT {
				t.Errorf("%d mechanisms @ %s: cell keys %s/%s, want %s/%s",
					len(mechs), tech.Name, thermalKey, fitKey, wantThermal, wantFIT)
			}
		}
	}
}
