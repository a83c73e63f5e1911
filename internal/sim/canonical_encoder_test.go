package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/workload"
)

// canonMapInputs exercises the map paths of the encoder, which no hashed
// type uses today: name-keyed maps, nested values, and keys that differ
// only in invalid UTF-8.
type canonMapInputs struct {
	Extra  map[string]float64                 `json:"extra,omitempty"`
	Names  map[FidelityMode]string            `json:"names"`
	Nested map[string][]fidelityThermalInputs `json:"nested"`
	Flags  map[string]*bool
}

// canonStrings are the strings the random values draw from: registry and
// mode names, every escape class encoding/json distinguishes, and invalid
// UTF-8.
var canonStrings = []string{
	"", "em", "sm", "tddb", "tc", "nbti", "hci", "tc-rainflow",
	string(FidelityExact), string(FidelityAdaptive), string(FidelityPhase),
	"wearout", "sofr", "gzip", "65nm (1.0V)",
	"<script>&amp;</script>", "a\u2028b\u2029c", "\"quoted\" \\ /",
	"\t\n\r\b\f", "\x00\x01\x1f\x7f", "日本語", "\ufffd",
	"\xff", "a\xc3", "\xed\xa0\x80", "ok\xfe\xff", "\xc3\x28",
}

// canonFloats sit on encoding/json's format boundaries: the 1e-6 and 1e21
// exponent cutoffs from both sides, −0, subnormals and the extremes.
var canonFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 2004, 1e20,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
	1e-7, 123456789e-15, 5e-324, 1e-310, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	float64(float32(1e-6)), float64(math.Nextafter32(1e-6, 0)), float64(math.MaxFloat32),
}

// canonRand fills values of any type the encoder plans with adversarial
// content.
type canonRand struct{ r *rand.Rand }

func (g canonRand) str() string {
	if g.r.IntN(4) == 0 {
		b := make([]byte, g.r.IntN(8))
		for i := range b {
			b[i] = byte(g.r.UintN(256))
		}
		return string(b)
	}
	return canonStrings[g.r.IntN(len(canonStrings))]
}

func (g canonRand) float() float64 {
	switch g.r.IntN(4) {
	case 0:
		return canonFloats[g.r.IntN(len(canonFloats))]
	case 1:
		for {
			if f := math.Float64frombits(g.r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 2:
		return float64(g.r.IntN(2001) - 1000)
	default:
		return (g.r.Float64() - 0.5) * math.Pow(10, float64(g.r.IntN(60)-30))
	}
}

func (g canonRand) int() int64 {
	switch g.r.IntN(3) {
	case 0:
		return 0
	case 1:
		return int64(g.r.IntN(1_000_001))
	default:
		return int64(g.r.Uint64())
	}
}

// fill sets every exported field reachable from v.
func (g canonRand) fill(v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(g.r.IntN(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(g.int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(uint64(g.int()))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(g.float())
	case reflect.String:
		v.SetString(g.str())
	case reflect.Pointer:
		if depth > 4 || g.r.IntN(3) == 0 {
			v.SetZero()
			return
		}
		p := reflect.New(v.Type().Elem())
		g.fill(p.Elem(), depth+1)
		v.Set(p)
	case reflect.Slice:
		switch n := g.r.IntN(5); {
		case depth > 4 || n == 0:
			v.SetZero()
		case n == 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			s := reflect.MakeSlice(v.Type(), n-1, n-1)
			for i := 0; i < s.Len(); i++ {
				g.fill(s.Index(i), depth+1)
			}
			v.Set(s)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			g.fill(v.Index(i), depth+1)
		}
	case reflect.Map:
		if depth > 4 || g.r.IntN(4) == 0 {
			v.SetZero()
			return
		}
		m := reflect.MakeMap(v.Type())
		for n := g.r.IntN(5); n > 0; n-- {
			k := reflect.New(v.Type().Key()).Elem()
			g.fill(k, depth+1)
			e := reflect.New(v.Type().Elem()).Elem()
			g.fill(e, depth+1)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				g.fill(f, depth+1)
			}
		}
	}
}

// compareCanonical checks the direct encoder against the reference on v:
// both fail, or both succeed with the same bytes.
func compareCanonical(t *testing.T, v any) {
	t.Helper()
	want, werr := CanonicalJSON(v)
	got, gerr := appendCanonical(nil, v)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("error mismatch on %T: reference %v, encoder %v", v, werr, gerr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("encoder diverged on %T:\nencoder   %s\nreference %s", v, got, want)
	}
}

// fidelityModes cycles every fidelity mode, nil (exact by default) first.
var fidelityModes = []*Fidelity{nil, {Mode: FidelityExact}, {Mode: FidelityAdaptive}, {Mode: FidelityPhase}}

// canonMechanismSets are the default set, non-default sets and unknown
// names; keys hash whatever list reaches them.
var canonMechanismSets = [][]string{
	nil, {"em", "sm", "tc", "tddb"}, {"hci", "nbti"},
	{"em", "hci", "nbti", "sm", "tc", "tc-rainflow", "tddb"}, {"tc-rainflow"},
}

// randomConfig returns a random Config that still carries a real fidelity
// mode and mechanism set, so every mode and set is covered.
func (g canonRand) randomConfig(i int) Config {
	var cfg Config
	if g.r.IntN(2) == 0 {
		cfg = DefaultConfig()
	} else {
		g.fill(reflect.ValueOf(&cfg).Elem(), 0)
	}
	if f := fidelityModes[i%len(fidelityModes)]; f != nil && g.r.IntN(2) == 0 {
		cp := *f
		cfg.Fidelity = &cp
	}
	if g.r.IntN(2) == 0 {
		cfg.Mechanisms = canonMechanismSets[g.r.IntN(len(canonMechanismSets))]
	}
	return cfg
}

func (g canonRand) profiles() []workload.Profile {
	if g.r.IntN(2) == 0 {
		all := workload.Profiles()
		lo := g.r.IntN(len(all))
		return all[lo : lo+g.r.IntN(min(3, len(all)-lo)+1)]
	}
	var ps []workload.Profile
	g.fill(reflect.ValueOf(&ps).Elem(), 2)
	return ps
}

func (g canonRand) techs() []scaling.Technology {
	if g.r.IntN(2) == 0 {
		return scaling.Generations()
	}
	var ts []scaling.Technology
	g.fill(reflect.ValueOf(&ts).Elem(), 2)
	return ts
}

// TestCanonicalEncoderMatchesReference is the differential test: on
// 10 000 random values of every hashed type (and of a map-bearing test
// type) the direct encoder writes exactly the reference's bytes. The
// values cover every fidelity mode, default and non-default mechanism
// sets, maps, escapes, invalid UTF-8, and floats across the format
// cutoffs.
func TestCanonicalEncoderMatchesReference(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	g := canonRand{rand.New(rand.NewPCG(2004, 32))}
	for _, tc := range []struct {
		name string
		make func(i int) any
	}{
		{"studyRequest", func(i int) any {
			return studyRequest{Config: g.randomConfig(i), Profiles: g.profiles(), Techs: g.techs()}
		}},
		{"timingStageInputs", func(i int) any {
			cfg := g.randomConfig(i)
			v := timingStageInputs{Machine: cfg.Machine, Instructions: cfg.Instructions,
				Profile: g.profiles0(), Fidelity: timingFidelityKeyInputs(cfg.Fidelity)}
			if g.r.IntN(4) == 0 {
				g.fill(reflect.ValueOf(&v.Fidelity).Elem(), 0)
			}
			return v
		}},
		{"thermalStageInputs", func(i int) any {
			cfg := g.randomConfig(i)
			v := thermalStageInputs{TimingKey: g.str(), Power: cfg.Power, Thermal: cfg.Thermal,
				Calibrate: cfg.CalibrateAppPower, Base: scaling.Base(), Tech: g.tech(),
				Fidelity: thermalFidelityKeyInputs(cfg.Fidelity)}
			if g.r.IntN(4) == 0 {
				g.fill(reflect.ValueOf(&v.Fidelity).Elem(), 0)
			}
			return v
		}},
		{"fitStageInputs", func(i int) any {
			cfg := g.randomConfig(i)
			return fitStageInputs{ThermalKey: g.str(), RAMP: cfg.RAMP,
				RecordTrace: cfg.RecordThermalTrace, Mechanisms: cfg.Mechanisms}
		}},
		{"mcStudyRequest", func(i int) any {
			var mc MCConfig
			g.fill(reflect.ValueOf(&mc).Elem(), 0)
			if g.r.IntN(2) == 0 {
				mc = mc.Normalized()
			}
			return mcStudyRequest{
				Study: studyRequest{Config: g.randomConfig(i), Profiles: g.profiles(), Techs: g.techs()},
				MC:    mc,
			}
		}},
		{"canonMapInputs", func(int) any {
			var v canonMapInputs
			g.fill(reflect.ValueOf(&v).Elem(), 0)
			return v
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < n; i++ {
				compareCanonical(t, tc.make(i))
			}
		})
	}
}

func (g canonRand) profiles0() workload.Profile {
	if ps := g.profiles(); len(ps) > 0 {
		return ps[0]
	}
	return workload.Profile{}
}

func (g canonRand) tech() scaling.Technology {
	if ts := g.techs(); len(ts) > 0 {
		return ts[g.r.IntN(len(ts))]
	}
	return scaling.Technology{}
}

// TestCanonicalEncoderRejectsNonFinite: NaN and ±Inf have no JSON form, so
// a key over them fails as json.Marshal does, never hashes a stand-in.
func TestCanonicalEncoderRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultConfig()
		cfg.QualFITPerMechanism = f
		if _, err := StudyKey(cfg, workload.Profiles()[:1], scaling.Generations()); err == nil {
			t.Errorf("StudyKey accepted QualFITPerMechanism=%v", f)
		}
		_, err := appendCanonical(nil, MCConfig{Percentiles: []float64{50, f}})
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) {
			t.Errorf("percentile %v: got %v, want a json.UnsupportedValueError", f, err)
		}
	}
}

type canonJSONMarshaler struct{ X int }

func (canonJSONMarshaler) MarshalJSON() ([]byte, error) { return []byte(`"custom"`), nil }

type canonTextMarshaler struct{ X int }

func (*canonTextMarshaler) MarshalText() ([]byte, error) { return []byte("custom"), nil }

type canonTextKey string

func (canonTextKey) MarshalText() ([]byte, error) { return []byte("custom"), nil }

// TestCanonicalPlanRejectsCustomEncodings: a type that encodes itself, or
// that the plan could only approximate, fails plan building loudly — every
// time it is asked for, and wherever it is nested.
func TestCanonicalPlanRejectsCustomEncodings(t *testing.T) {
	type embedded struct{ A int }
	for _, v := range []any{
		canonJSONMarshaler{},
		struct{ In canonJSONMarshaler }{},
		struct{ In []canonTextMarshaler }{},
		&canonTextMarshaler{},
		map[canonTextKey]int{},
		struct{ F any }{},
		struct{ embedded }{},
		struct {
			N int `json:"n,string"`
		}{},
		struct {
			N int `json:"n,omitzero"`
		}{},
		// Built by reflection: vet rejects the duplicate tag in source.
		reflect.New(reflect.StructOf([]reflect.StructField{
			{Name: "A", Type: reflect.TypeFor[int](), Tag: `json:"x"`},
			{Name: "B", Type: reflect.TypeFor[int](), Tag: `json:"x"`},
		})).Elem().Interface(),
		struct{ B []byte }{},
		map[float64]int{},
		map[int]string{},
		struct{ C chan int }{},
	} {
		for range 2 {
			if b, err := appendCanonical(nil, v); err == nil {
				t.Errorf("%T: encoder accepted it, wrote %s", v, b)
			} else if !strings.HasPrefix(err.Error(), "sim: canonical:") {
				t.Errorf("%T: error %q lacks the package prefix", v, err)
			}
		}
	}
}

// TestCanonicalRecursiveType: a self-referential type plans through an
// indirection and encodes like the reference.
func TestCanonicalRecursiveType(t *testing.T) {
	type node struct {
		Name string `json:"name"`
		Next *node  `json:"next,omitempty"`
		Kids []node `json:"kids"`
	}
	compareCanonical(t, node{Name: "a", Next: &node{Name: "b<"}, Kids: []node{{Name: "\xff"}}})
}

// FuzzCanonicalEncoder differentially fuzzes the direct encoder against
// the reference: a random study request and a map-bearing value built
// from seed, with the fuzzed string and float planted where names,
// mechanism lists, map keys and parameters go.
func FuzzCanonicalEncoder(f *testing.F) {
	f.Add(int64(1), "gzip", 1000.0)
	f.Add(int64(2), "<a&b>\u2028\u2029", 1e-6)
	f.Add(int64(3), "\xff\xfe", math.Nextafter(1e21, 0))
	f.Add(int64(4), "tc-rainflow", math.Copysign(0, -1))
	f.Add(int64(5), "\x00\"\\", 5e-324)
	f.Fuzz(func(t *testing.T, seed int64, s string, x float64) {
		g := canonRand{rand.New(rand.NewPCG(uint64(seed), 7))}
		req := studyRequest{Config: g.randomConfig(int(seed & 3)), Profiles: g.profiles(), Techs: g.techs()}
		req.Config.Mechanisms = append(req.Config.Mechanisms, s)
		req.Config.QualFITPerMechanism = x
		if len(req.Profiles) > 0 {
			req.Profiles = append([]workload.Profile(nil), req.Profiles...)
			req.Profiles[0].Name = s
			req.Profiles[0].DepDist = x
		}
		compareCanonical(t, req)
		compareCanonical(t, mcStudyRequest{Study: req, MC: MCConfig{Model: s, Percentiles: []float64{x}}})
		var m canonMapInputs
		g.fill(reflect.ValueOf(&m).Elem(), 0)
		m.Extra = map[string]float64{s: x, s + "\xff": -x, strings.ToUpper(s): x / 3}
		compareCanonical(t, m)
	})
}

// TestStudyKeyAllocs gates the key path's allocations: the 16-application
// default study hashes in a few allocations, not the round trip's
// thousands. The count is host-independent.
func TestStudyKeyAllocs(t *testing.T) {
	cfg, profiles, techs := DefaultConfig(), workload.Profiles(), scaling.Generations()
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		_, err = StudyKey(cfg, profiles, techs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 8 {
		t.Errorf("StudyKey of the 16-app default study: %.1f allocations, want ≤ 8", allocs)
	}
}

// TestFITKeyAllocs gates one cell's reliability key, which hashes the
// timing, thermal and FIT inputs in turn.
func TestFITKeyAllocs(t *testing.T) {
	cfg, prof, tech := DefaultConfig(), workload.Profiles()[0], scaling.Generations()[2]
	cfg.Mechanisms = []string{"nbti", "em", "SM"}
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		_, err = FITKey(cfg, prof, tech)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 8 {
		t.Errorf("FITKey: %.1f allocations, want ≤ 8", allocs)
	}
}
