package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ramp-sim/ramp/internal/floorplan"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/scaling"
)

// publicRate evaluates a built-in mechanism through its public Params rate
// function.
func publicRate(name string, p Params, s Sample, tech scaling.Technology) float64 {
	switch name {
	case MechEM:
		return p.EMRate(s.AF, s.TempK, tech)
	case MechSM:
		return p.SMRate(s.TempK)
	case MechTDDB:
		return p.TDDBRate(s.VddV, s.TempK, tech)
	case MechTC:
		return p.TCRate(s.DieAvgTempK)
	case MechNBTI:
		return p.NBTIRate(s.AF, s.TempK, s.VddV, tech)
	case MechHCI:
		return p.HCIRate(s.AF, s.TempK, s.VddV, tech)
	}
	panic("no public rate for " + name)
}

// randomSample draws an operating point: activity factors slightly outside
// [0, 1] (the rates clamp them), temperatures either side of the TC
// ambient, and a supply that is nominal, a DVS level, or arbitrary.
func randomSample(rng *rand.Rand, tech scaling.Technology) Sample {
	vdd := tech.VddV
	switch rng.Intn(3) {
	case 1:
		vdd *= []float64{0.8, 0.85, 0.9, 0.95, 1.05, 1.1}[rng.Intn(6)]
	case 2:
		vdd *= 0.5 + rng.Float64()
	}
	return Sample{
		AF:          -0.1 + 1.2*rng.Float64(),
		TempK:       250 + 200*rng.Float64(),
		VddV:        vdd,
		DieAvgTempK: 250 + 200*rng.Float64(),
	}
}

// TestPreparedRatesMatchParams: every built-in rate with a technology
// factor, prepared once per technology, equals its public Params rate
// function bit for bit on every default technology, at nominal and
// off-nominal supplies, with default and overridden NBTI/HCI constants.
func TestPreparedRatesMatchParams(t *testing.T) {
	overridden := DefaultParams()
	overridden.NBTI = &NBTIParams{A: 1.7, B: 0.07, C: 0.012, D: -0.07, Beta: 0.25, FieldExponent: 4, RecoveryWeight: 0.3}
	overridden.HCI = &HCIParams{ActivationEnergyEV: 0.1, FieldExponent: 2.5}
	rng := rand.New(rand.NewSource(3))
	for _, p := range []Params{DefaultParams(), overridden} {
		for _, tech := range scaling.Generations() {
			for _, name := range allSevenMechanisms() {
				m, err := MechanismByName(name)
				if err != nil {
					t.Fatal(err)
				}
				pr, ok := m.(preparer)
				if !ok {
					if name != MechTCRainflow {
						t.Fatalf("built-in %s has no prepared rate", name)
					}
					continue
				}
				rate := pr.prepare(&p, tech)
				for i := 0; i < 3_000; i++ {
					s := randomSample(rng, tech)
					want, got := publicRate(name, p, s, tech), rate(s)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s at %s, %+v: prepared %v, public %v", name, tech.Name, s, got, want)
					}
				}
			}
		}
	}
}

// rateOnlyMechanism implements only the MechanismModel interface, as a
// mechanism registered from outside this package does.
type rateOnlyMechanism struct{}

func (rateOnlyMechanism) Name() string              { return "test-rate-only" }
func (rateOnlyMechanism) Description() string       { return "test stub" }
func (rateOnlyMechanism) ParamsDescription() string { return "none" }
func (rateOnlyMechanism) Scope() MechanismScope     { return ScopeStructure }
func (rateOnlyMechanism) Rate(s Sample, p Params, tech scaling.Technology) float64 {
	return s.AF * s.TempK * p.TC.Q * tech.VddV
}

// TestEvaluatorMatchesPublicRates: Instant equals the pre-registry
// expression over the public rate functions, (K·frac)·rate for structure
// scope and (K·rate)·frac for package scope, and AccumulateInstant equals
// Accumulate(Instant(…)), bit for bit, for the default set, all seven
// built-ins, and a mechanism that implements only Rate.
func TestEvaluatorMatchesPublicRates(t *testing.T) {
	if !registeredName("test-rate-only") {
		if err := RegisterMechanism(rateOnlyMechanism{}); err != nil {
			t.Fatal(err)
		}
	}
	p := DefaultParams()
	rng := rand.New(rand.NewSource(4))
	areas := floorplan.POWER4().Areas()
	var total float64
	for _, a := range areas {
		total += a
	}
	consts := ReferenceConstants()
	consts.Extra = map[string]float64{MechNBTI: 3, MechHCI: 5, "test-rate-only": 7}
	for _, names := range [][]string{nil, allSevenMechanisms(), {MechEM, "test-rate-only"}} {
		set, err := ResolveMechanismSet(names)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range scaling.Generations() {
			e, err := NewEvaluatorForSet(p, consts, tech, areas, set)
			if err != nil {
				t.Fatal(err)
			}
			viaInstant, err := NewEvaluatorForSet(p, consts, tech, areas, set)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				var af, temps [microarch.NumStructures]float64
				s := randomSample(rng, tech)
				for k := range af {
					af[k], temps[k] = rng.Float64(), 300+100*rng.Float64()
				}
				got := e.Instant(af, temps, s.VddV, s.DieAvgTempK)
				for _, name := range set.Names() {
					want := referenceRates(name, p, consts, tech, areas, total, af, temps, s)
					var have [microarch.NumStructures]float64
					if slot, ok := LegacySlot(name); ok {
						for k := range have {
							have[k] = got.ByStructMech[k][slot]
						}
					} else {
						have = got.Extra[name]
					}
					for k := range have {
						if math.Float64bits(have[k]) != math.Float64bits(want[k]) {
							t.Fatalf("%s at %s, structure %d: Instant %v, reference %v", name, tech.Name, k, have[k], want[k])
						}
					}
				}
				w := 0.5 + rng.Float64()
				e.AccumulateInstant(af, temps, s.VddV, s.DieAvgTempK, w)
				viaInstant.Accumulate(got, w)
			}
			if a, b := e.Average(), viaInstant.Average(); !a.Equal(b) {
				t.Fatalf("%v at %s: AccumulateInstant average differs from Accumulate(Instant)", names, tech.Name)
			}
		}
	}
}

// registeredName reports whether a mechanism of that name is registered.
func registeredName(name string) bool {
	for _, info := range RegisteredMechanisms() {
		if info.Name == name {
			return true
		}
	}
	return false
}

// referenceRates is the pre-registry per-cell expression for one
// mechanism at one operating point.
func referenceRates(name string, p Params, c Constants, tech scaling.Technology, areas []float64, total float64,
	af, temps [microarch.NumStructures]float64, s Sample) [microarch.NumStructures]float64 {
	k := c.ExtraK(name)
	if slot, ok := LegacySlot(name); ok {
		k = c.K[slot]
	}
	var out [microarch.NumStructures]float64
	if name == MechTCRainflow {
		return out
	}
	if name == MechTC {
		r := k * p.TCRate(s.DieAvgTempK)
		for i := range out {
			out[i] = r * (areas[i] / total)
		}
		return out
	}
	for i := range out {
		si := Sample{AF: af[i], TempK: temps[i], VddV: s.VddV, DieAvgTempK: s.DieAvgTempK}
		var r float64
		if name == "test-rate-only" {
			r = rateOnlyMechanism{}.Rate(si, p, tech)
		} else {
			r = publicRate(name, p, si, tech)
		}
		out[i] = k * (areas[i] / total) * r
	}
	return out
}

// TestFITAccumulationAllocs gates the FIT accumulation loop: folding one
// operating point into the running average allocates nothing, even with
// all seven mechanisms (three of them name-keyed) and an off-nominal
// supply.
func TestFITAccumulationAllocs(t *testing.T) {
	set, err := ResolveMechanismSet(allSevenMechanisms())
	if err != nil {
		t.Fatal(err)
	}
	tech := scaling.Base()
	e, err := NewEvaluatorForSet(DefaultParams(), UnitConstants(), tech, floorplan.POWER4().Areas(), set)
	if err != nil {
		t.Fatal(err)
	}
	af, temps, _, dieAvg := typicalOperatingPoint()
	vdd := tech.VddV
	if n := testing.AllocsPerRun(200, func() {
		e.AccumulateInstant(af, temps, vdd, dieAvg, 1)
		e.AccumulateInstant(af, temps, 0.9*vdd, dieAvg, 1)
	}); n != 0 {
		t.Fatalf("FIT accumulation allocates %v times per run; want 0", n)
	}
}
