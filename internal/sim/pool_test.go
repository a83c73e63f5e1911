package sim

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"github.com/ramp-sim/ramp/internal/core"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/workload"
)

// peakRecorder is a sched.Recorder that also tracks the most tasks ever
// in flight at once.
type peakRecorder struct {
	sched.Counters
	mu        sync.Mutex
	cur, peak int64
}

func (r *peakRecorder) TaskStarted() {
	r.Counters.TaskStarted()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cur++
	r.peak = max(r.peak, r.cur)
}

func (r *peakRecorder) TaskFinished(err error) {
	r.mu.Lock()
	r.cur--
	r.mu.Unlock()
	r.Counters.TaskFinished(err)
}

func (r *peakRecorder) maxInFlight() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peak
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
// reporting to one Recorder: three app pairs, each studied with the
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
	rec := &peakRecorder{}
	opts := StudyOptions{Cache: cache, Metrics: rec}
	ctx := context.Background()

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
	peak := rec.maxInFlight()
	if limit := int64(runtime.GOMAXPROCS(0)); peak > limit || peak < 1 {
		t.Errorf("peak stage work in flight = %d, want 1..GOMAXPROCS (%d)", peak, limit)
	}
	if got := rec.QueueDepth() + rec.InFlight(); got != 0 {
		t.Errorf("pool gauges after every study = %d, want 0", got)
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
	rec := &peakRecorder{}
	if _, err := RunStudyContext(context.Background(), cfg, profiles, techs,
		StudyOptions{Parallelism: 1, Metrics: rec, Cache: testStageCache(t)}); err != nil {
		t.Fatal(err)
	}
	if peak := rec.maxInFlight(); peak != 1 {
		t.Errorf("peak stage work in flight = %d, want 1", peak)
	}
	n, nt := len(profiles), len(techs)
	if want := int64(n + 2*n*nt + 1 + nt); rec.Completed() != want {
		t.Errorf("stage work units = %d, want %d", rec.Completed(), want)
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
