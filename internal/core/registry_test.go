package core

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/ramp-sim/ramp/internal/scaling"
)

// nominalSample is a representative operating point: a moderately busy
// structure on a warm die at the base technology's nominal supply.
func nominalSample() Sample {
	return Sample{AF: 0.4, TempK: 345, VddV: scaling.Base().VddV, DieAvgTempK: 342}
}

// TestRegistryConformance is the contract every registered mechanism must
// honour: canonical naming, documentation for the discovery endpoint, and a
// finite, non-negative, deterministic rate at a nominal sample on every
// technology node. Series-only mechanisms must return Rate()==0 (they are
// excluded from instantaneous analyses) and a finite series rate.
func TestRegistryConformance(t *testing.T) {
	infos := RegisteredMechanisms()
	if len(infos) < 7 {
		t.Fatalf("registry has %d mechanisms; want at least the 4 paper + 3 extension models", len(infos))
	}
	p := DefaultParams()
	for _, info := range infos {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			m, err := MechanismByName(info.Name)
			if err != nil {
				t.Fatal(err)
			}
			if m.Name() != info.Name {
				t.Errorf("Name() = %q; registry lists %q", m.Name(), info.Name)
			}
			if m.Name() != strings.ToLower(m.Name()) {
				t.Errorf("Name() = %q; canonical names are lower-case", m.Name())
			}
			if canon, err := CanonicalMechanismNames([]string{m.Name()}); err != nil ||
				len(canon) != 1 || canon[0] != m.Name() {
				t.Errorf("canonical name round-trip failed: %v, %v", canon, err)
			}
			if m.Description() == "" || m.ParamsDescription() == "" {
				t.Error("empty Description or ParamsDescription (discovery endpoint contract)")
			}
			_, isSeries := m.(SeriesMechanism)
			if isSeries != info.Series {
				t.Errorf("Series flag %v does not match SeriesMechanism implementation %v", info.Series, isSeries)
			}
			s := nominalSample()
			for _, tech := range scaling.Generations() {
				r := m.Rate(s, p, tech)
				if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
					t.Fatalf("Rate @ %s = %g; want finite and >= 0", tech.Name, r)
				}
				if r2 := m.Rate(s, p, tech); r2 != r {
					t.Fatalf("Rate @ %s not deterministic: %g then %g", tech.Name, r, r2)
				}
				if isSeries {
					if r != 0 {
						t.Fatalf("series-only mechanism returned instantaneous Rate %g @ %s; want 0", r, tech.Name)
					}
					continue
				}
				if r == 0 {
					t.Fatalf("Rate @ %s = 0 at a nominal busy sample; mechanism can never calibrate", tech.Name)
				}
			}
			if isSeries {
				sm := m.(SeriesMechanism)
				// A visible thermal cycle must register damage.
				rate := sm.SeriesRate([]float64{340, 355, 341, 356, 340}, []float64{100, 100, 100, 100, 100}, p)
				if math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 {
					t.Errorf("SeriesRate over a cycling trace = %g; want finite and > 0", rate)
				}
				// A constant trace carries no cycles and no damage.
				if flat := sm.SeriesRate([]float64{350, 350, 350}, []float64{100, 100, 100}, p); flat != 0 {
					t.Errorf("SeriesRate over a flat trace = %g; want 0", flat)
				}
			}
		})
	}
}

// TestMechanismMonotonicity pins the physical direction of every built-in
// model: which way the rate moves when temperature, activity, or voltage
// rises. These are the properties ablation conclusions rest on, so a
// refactor that flips a sign must fail loudly.
func TestMechanismMonotonicity(t *testing.T) {
	p := DefaultParams()
	tech := scaling.Base()
	rate := func(name string, s Sample) float64 {
		t.Helper()
		m, err := MechanismByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return m.Rate(s, p, tech)
	}
	bump := func(s Sample, field string) Sample {
		switch field {
		case "temp":
			s.TempK += 15
			s.DieAvgTempK += 15
		case "af":
			s.AF = math.Min(1, s.AF+0.3)
		case "vdd":
			s.VddV += 0.3
		}
		return s
	}
	cases := []struct {
		mech, field string
		up          bool // true: rate must rise with the field
	}{
		{MechEM, "temp", true},   // Arrhenius wear
		{MechEM, "af", true},     // current density
		{MechSM, "temp", true},   // Arrhenius wear
		{MechTDDB, "temp", true}, // thermally accelerated breakdown
		{MechTDDB, "vdd", true},  // field-driven breakdown
		{MechTC, "temp", true},   // larger die-to-ambient excursion
		{MechNBTI, "temp", true}, // trap generation accelerates
		{MechNBTI, "vdd", true},  // oxide field
		{MechNBTI, "af", false},  // dynamic recovery during switching
		{MechHCI, "af", true},    // injection scales with switching
		{MechHCI, "vdd", true},   // lateral field
		{MechHCI, "temp", false}, // hot-carrier damage is worse cold
	}
	for _, c := range cases {
		s := nominalSample()
		lo, hi := rate(c.mech, s), rate(c.mech, bump(s, c.field))
		if c.up && hi <= lo {
			t.Errorf("%s: rate must rise with %s; got %g -> %g", c.mech, c.field, lo, hi)
		}
		if !c.up && hi >= lo {
			t.Errorf("%s: rate must fall with %s; got %g -> %g", c.mech, c.field, lo, hi)
		}
	}
}

// TestMechanismScalingHooks: the field-driven mechanisms must see the
// technology point — the same sample on a scaled node yields a different
// rate, which is the paper's whole subject.
func TestMechanismScalingHooks(t *testing.T) {
	p := DefaultParams()
	gens := scaling.Generations()
	base, scaled := gens[0], gens[len(gens)-1]
	s := nominalSample()
	for _, name := range []string{MechEM, MechTDDB, MechNBTI, MechHCI} {
		m, err := MechanismByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if rb, rs := m.Rate(s, p, base), m.Rate(s, p, scaled); rb == rs {
			t.Errorf("%s: rate identical at %s and %s; scaling hook lost", name, base.Name, scaled.Name)
		}
	}
}

// testMechanism is a registrable stub for registry-behaviour tests.
type testMechanism struct{ name string }

func (m testMechanism) Name() string              { return m.name }
func (m testMechanism) Description() string       { return "test stub" }
func (m testMechanism) ParamsDescription() string { return "none" }
func (m testMechanism) Scope() MechanismScope     { return ScopeStructure }
func (m testMechanism) Rate(Sample, Params, scaling.Technology) float64 {
	return 1
}

// TestRegisterMechanismRejectsDuplicates: the registry is a process-wide
// namespace; silently replacing a model would change results under the
// same cache key.
func TestRegisterMechanismRejectsDuplicates(t *testing.T) {
	if err := RegisterMechanism(testMechanism{name: MechEM}); err == nil {
		t.Fatal("re-registering em succeeded; duplicates must be rejected")
	}
	if err := RegisterMechanism(testMechanism{name: ""}); err == nil {
		t.Fatal("registering an unnamed mechanism succeeded")
	}
}

// TestRegistryConcurrentResolution hammers the registry's read paths from
// many goroutines (run under -race in CI) while one goroutine performs a
// registration — the production shape: init-time writes, per-request reads.
func TestRegistryConcurrentResolution(t *testing.T) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				if _, err := ResolveMechanismSet([]string{"EM", "nbti", "tddb"}); err != nil {
					t.Error(err)
					return
				}
				if infos := RegisteredMechanisms(); len(infos) < 7 {
					t.Errorf("goroutine %d: registry shrank to %d", g, len(infos))
					return
				}
				if _, err := CanonicalMechanismNames([]string{"tc_rainflow", "hci"}); err != nil {
					t.Error(err)
					return
				}
				set := DefaultMechanismSet()
				if !set.IsDefault() {
					t.Error("default set lost its identity")
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 50; i++ {
			// Unique names so repeated `go test -count` runs do not collide;
			// registration failure is fine (previous run), data races are not.
			_ = RegisterMechanism(testMechanism{name: fmt.Sprintf("race-probe-%d", i)})
		}
	}()
	close(start)
	wg.Wait()
}

// TestTCRainflowParamsDescriptionMatchesDefaults formats
// DefaultTCRainflowParams and checks every "TCRainflow.<Field> … (value"
// the /v1/mechanisms description quotes against it, so the advertised
// defaults cannot drift from the ones the model uses.
func TestTCRainflowParamsDescriptionMatchesDefaults(t *testing.T) {
	defaults := reflect.ValueOf(DefaultTCRainflowParams())
	quoted := regexp.MustCompile(`TCRainflow\.(\w+) [^(]*\(([^,)]+)`).
		FindAllStringSubmatch(tcRainflowModel{}.ParamsDescription(), -1)
	if len(quoted) != defaults.NumField() {
		t.Fatalf("description quotes %d parameters, TCRainflowParams has %d", len(quoted), defaults.NumField())
	}
	for _, q := range quoted {
		f := defaults.FieldByName(q[1])
		if !f.IsValid() {
			t.Errorf("description names unknown parameter %s", q[1])
			continue
		}
		if want := fmt.Sprintf("%g", f.Float()); q[2] != want {
			t.Errorf("description quotes %s = %s, default is %s", q[1], q[2], want)
		}
	}
}
