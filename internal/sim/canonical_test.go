package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/workload"
)

// CanonicalJSON is the reference canonical encoding behind every content
// key: json.Marshal, then a decode into generic maps and a re-marshal, so
// object keys come out sorted lexicographically at every nesting level,
// with no insignificant whitespace and every number as encoding/json first
// rendered it. Two values that marshal to the same JSON object — whatever
// their struct field declaration order, or whether one side is a struct and
// the other a decoded map — produce byte-identical output. Keys are derived
// by the direct encoder (appendCanonical), which must write exactly these
// bytes; the differential tests and FuzzCanonicalEncoder compare the two.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("sim: canonical: %w", err)
	}
	// Round-trip through the generic form: maps re-marshal with sorted
	// keys, and json.Number keeps each numeric literal's original text so
	// no float precision is disturbed along the way.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return nil, fmt.Errorf("sim: canonical: %w", err)
	}
	out, err := json.Marshal(generic)
	if err != nil {
		return nil, fmt.Errorf("sim: canonical: %w", err)
	}
	return out, nil
}

// TestCanonicalJSONFieldOrderStability proves that struct field declaration
// order does not leak into the canonical encoding: two types carrying the
// same JSON object in different field orders encode identically.
func TestCanonicalJSONFieldOrderStability(t *testing.T) {
	type ab struct {
		Alpha float64 `json:"alpha"`
		Beta  string  `json:"beta"`
		Gamma int     `json:"gamma"`
	}
	type ba struct {
		Gamma int     `json:"gamma"`
		Beta  string  `json:"beta"`
		Alpha float64 `json:"alpha"`
	}
	x, err := CanonicalJSON(ab{Alpha: 0.1, Beta: "b", Gamma: 7})
	if err != nil {
		t.Fatal(err)
	}
	y, err := CanonicalJSON(ba{Alpha: 0.1, Beta: "b", Gamma: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Errorf("field order changed the canonical encoding:\n%s\n%s", x, y)
	}
	// Keys must come out sorted regardless of either declaration order.
	want := `{"alpha":0.1,"beta":"b","gamma":7}`
	if string(x) != want {
		t.Errorf("canonical form = %s, want %s", x, want)
	}
}

// TestCanonicalJSONRoundTripStability checks that decoding a canonical
// encoding into a generic map and re-canonicalising is a fixed point, for
// the real study inputs (Config, Profile, Technology) with their float
// parameters.
func TestCanonicalJSONRoundTripStability(t *testing.T) {
	for _, v := range []any{
		DefaultConfig(),
		workload.Profiles(),
		scaling.Generations(),
	} {
		first, err := CanonicalJSON(v)
		if err != nil {
			t.Fatal(err)
		}
		var generic any
		if err := json.Unmarshal(first, &generic); err != nil {
			t.Fatal(err)
		}
		second, err := CanonicalJSON(generic)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("canonical encoding is not a round-trip fixed point:\n%s\n%s", first, second)
		}
	}
}

// TestStudyKeyStability pins key determinism and input sensitivity.
func TestStudyKeyStability(t *testing.T) {
	cfg := DefaultConfig()
	profiles := workload.Profiles()[:2]
	techs := scaling.Generations()[:2]

	k1, err := StudyKey(cfg, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := StudyKey(cfg, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("identical requests hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a hex SHA-256", k1)
	}

	cfg2 := cfg
	cfg2.Instructions++
	kCfg, err := StudyKey(cfg2, profiles, techs)
	if err != nil {
		t.Fatal(err)
	}
	if kCfg == k1 {
		t.Error("changing Config.Instructions did not change the key")
	}

	kProf, err := StudyKey(cfg, profiles[:1], techs)
	if err != nil {
		t.Fatal(err)
	}
	if kProf == k1 {
		t.Error("changing the profile set did not change the key")
	}

	kTech, err := StudyKey(cfg, profiles, techs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if kTech == k1 {
		t.Error("changing the technology set did not change the key")
	}
}

// TestStageKeyInvalidation pins the stage-cache contract of the staged
// pipeline: a reliability-only constant change (EM activation energy) must
// leave the timing and thermal stage keys untouched — those artifacts are
// reusable — while invalidating the reliability key and the whole-study
// key; a trace-length change must invalidate every stage.
func TestStageKeyInvalidation(t *testing.T) {
	cfg := DefaultConfig()
	prof := workload.Profiles()[0]
	tech := scaling.Generations()[1]

	keys := func(c Config) (timing, thermal, fit string) {
		var err error
		if timing, err = TimingKey(c, prof); err != nil {
			t.Fatal(err)
		}
		if thermal, err = ThermalKey(c, prof, tech); err != nil {
			t.Fatal(err)
		}
		if fit, err = FITKey(c, prof, tech); err != nil {
			t.Fatal(err)
		}
		return timing, thermal, fit
	}
	baseTiming, baseThermal, baseFIT := keys(cfg)

	// Reliability-only change: EM activation energy.
	em := cfg
	em.RAMP.EM.ActivationEnergyEV += 0.05
	emTiming, emThermal, emFIT := keys(em)
	if emTiming != baseTiming {
		t.Errorf("EM constant change invalidated the timing key")
	}
	if emThermal != baseThermal {
		t.Errorf("EM constant change invalidated the thermal key")
	}
	if emFIT == baseFIT {
		t.Errorf("EM constant change did not invalidate the reliability key")
	}
	k0, err := StudyKey(cfg, []workload.Profile{prof}, scaling.Generations()[:2])
	if err != nil {
		t.Fatal(err)
	}
	k1, err := StudyKey(em, []workload.Profile{prof}, scaling.Generations()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k1 {
		t.Errorf("EM constant change did not invalidate the study key")
	}

	// Trace-length change: everything must move.
	longer := cfg
	longer.Instructions *= 2
	lTiming, lThermal, lFIT := keys(longer)
	if lTiming == baseTiming || lThermal == baseThermal || lFIT == baseFIT {
		t.Errorf("trace-length change left a stage key unchanged: timing %v thermal %v fit %v",
			lTiming == baseTiming, lThermal == baseThermal, lFIT == baseFIT)
	}

	// Qualification budget: applied at assembly, part of no per-cell stage.
	qual := cfg
	qual.QualFITPerMechanism *= 2
	qTiming, qThermal, qFIT := keys(qual)
	if qTiming != baseTiming || qThermal != baseThermal || qFIT != baseFIT {
		t.Errorf("qualification budget leaked into a per-cell stage key")
	}
}

// TestStageKeyTechSensitivity: the thermal and reliability keys are
// per-cell, so a different technology point must produce different keys
// while the shared timing key stays put.
func TestStageKeyTechSensitivity(t *testing.T) {
	cfg := DefaultConfig()
	prof := workload.Profiles()[0]
	gens := scaling.Generations()
	th0, err := ThermalKey(cfg, prof, gens[0])
	if err != nil {
		t.Fatal(err)
	}
	th1, err := ThermalKey(cfg, prof, gens[1])
	if err != nil {
		t.Fatal(err)
	}
	if th0 == th1 {
		t.Errorf("thermal key identical across technology points")
	}
	f0, err := FITKey(cfg, prof, gens[0])
	if err != nil {
		t.Fatal(err)
	}
	f1, err := FITKey(cfg, prof, gens[1])
	if err != nil {
		t.Fatal(err)
	}
	if f0 == f1 {
		t.Errorf("reliability key identical across technology points")
	}
}
