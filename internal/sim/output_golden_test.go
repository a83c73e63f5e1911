package sim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"github.com/ramp-sim/ramp/internal/report"
	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sim"
	"github.com/ramp-sim/ramp/internal/workload"
)

// The full-output digests pin every number a study or Monte Carlo run
// reports, not just the timing stage: temperatures, FIT, MTTF, the worst
// case and the sampled lifetime distributions. Refactors of the key
// derivation, the stage cache, the serving layer or the sampler must leave
// them fixed; a model change re-pins them and says why.

// allSevenMechanisms is every registered failure mechanism, spelled out so
// the digests do not move when the registry grows.
var allSevenMechanisms = []string{"em", "sm", "tddb", "tc", "nbti", "hci", "tc-rainflow"}

// goldenStudyCase names one pinned study: a fidelity and a mechanism set.
type goldenStudyCase struct {
	name       string
	fidelity   sim.FidelityMode
	mechanisms []string
}

var goldenStudyCases = []goldenStudyCase{
	{"exact/default", sim.FidelityExact, nil},
	{"exact/all7", sim.FidelityExact, allSevenMechanisms},
	{"phase/default", sim.FidelityPhase, nil},
	{"phase/all7", sim.FidelityPhase, allSevenMechanisms},
}

// goldenStudyDigests pins sha256(json.Marshal(report.BuildDocument(res)))
// for each goldenStudyCases entry: 4 applications × 5 technologies at
// 200 000 instructions.
var goldenStudyDigests = map[string]string{
	"exact/default": "12445c5822418637771b6b34323ae7084002218a4ae42f072af757ce67302081",
	"exact/all7":    "2cdded208419054ab3819bc9caa0cdd5a752a9bebab5cad31a9e76bb56efc853",
	"phase/default": "fcd791a9e052763cd078b6666782cbb245297098331ac0bbac84931f040a2931",
	"phase/all7":    "1ffa8d2305c8f6743bf40d073b83411ba34df598418228683ad5ef5387552094",
}

// goldenMCDigests pins sha256(json.Marshal(MCResult)) for both lifetime
// models over the exact studies above, 500 samples per cell.
var goldenMCDigests = map[string]string{
	"wearout/default": "78b5bfe83466fd3d6f75a3f3a151028fc08080c4e1715de87f6ae4e228393659",
	"wearout/all7":    "10d1d581a923c62b9e63e19c39683f34868837701f6f6ec59b097cef0e943f67",
	"sofr/default":    "62af835bb02ef6d8fbd4e5127129e2b07aa897512165eb6b589a3bfb90105af3",
	"sofr/all7":       "869d4cd27314441bcaeeb32a38849e93e504305b5694a8e349a007ddf7c6484d",
}

// skipOffAMD64 skips a digest test on other architectures: math.Exp takes
// an FMA path on some hosts, so the bytes are host-dependent until ROADMAP
// item 14 step 2 owns the transcendental functions.
func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("output digests are pinned on amd64 only, not %s: math.Exp's FMA path "+
			"makes the bytes host-dependent (ROADMAP item 14)", runtime.GOARCH)
	}
}

var (
	goldenStudiesOnce sync.Once
	goldenStudies     map[string]*sim.StudyResult
	goldenStudiesErr  error
)

// runGoldenStudies runs every goldenStudyCases study once per test binary.
func runGoldenStudies(t *testing.T) map[string]*sim.StudyResult {
	t.Helper()
	goldenStudiesOnce.Do(func() {
		var profiles []workload.Profile
		for _, name := range []string{"ammp", "gzip", "crafty", "mgrid"} {
			p, err := workload.ByName(name)
			if err != nil {
				goldenStudiesErr = err
				return
			}
			profiles = append(profiles, p)
		}
		goldenStudies = make(map[string]*sim.StudyResult)
		for _, c := range goldenStudyCases {
			cfg := sim.DefaultConfig()
			cfg.Instructions = 200_000
			cfg.Fidelity = &sim.Fidelity{Mode: c.fidelity}
			cfg.Mechanisms = c.mechanisms
			res, err := sim.RunStudyContext(context.Background(), cfg, profiles,
				scaling.Generations(), sim.StudyOptions{})
			if err != nil {
				goldenStudiesErr = err
				return
			}
			goldenStudies[c.name] = res
		}
	})
	if goldenStudiesErr != nil {
		t.Fatal(goldenStudiesErr)
	}
	return goldenStudies
}

func digestJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestStudyOutputGolden pins the full study document for exact and phase
// fidelity with the default and all-seven mechanism sets.
func TestStudyOutputGolden(t *testing.T) {
	skipOffAMD64(t)
	studies := runGoldenStudies(t)
	for _, c := range goldenStudyCases {
		if got := digestJSON(t, report.BuildDocument(studies[c.name])); got != goldenStudyDigests[c.name] {
			t.Errorf("%s study output changed: digest %s, want %s", c.name, got, goldenStudyDigests[c.name])
		}
	}
}

// TestMCOutputGolden pins the Monte Carlo result for the wear-out and
// SOFR lifetime models with the default and all-seven mechanism sets.
func TestMCOutputGolden(t *testing.T) {
	skipOffAMD64(t)
	studies := runGoldenStudies(t)
	for _, model := range []string{"wearout", "sofr"} {
		for _, set := range []string{"default", "all7"} {
			name := model + "/" + set
			res, err := sim.MonteCarloStudy(context.Background(), studies["exact/"+set],
				sim.MCConfig{Samples: 500, Model: model, Seed: 2004}, sim.MCOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := digestJSON(t, res); got != goldenMCDigests[name] {
				t.Errorf("%s Monte Carlo output changed: digest %s, want %s", name, got, goldenMCDigests[name])
			}
		}
	}
}
