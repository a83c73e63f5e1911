package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ramp-sim/ramp/internal/floorplan"
	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/scaling"
)

func newBaseEvaluator(t *testing.T, consts Constants) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(DefaultParams(), consts, scaling.Base(), floorplan.POWER4().Areas())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// scale returns the breakdown multiplied by a scalar.
func (b Breakdown) scale(f float64) Breakdown {
	out := Breakdown{}
	for s := range b.ByStructMech {
		for m := range b.ByStructMech[s] {
			out.ByStructMech[s][m] = b.ByStructMech[s][m] * f
		}
	}
	for name, arr := range b.Extra {
		for s := range arr {
			arr[s] *= f
		}
		out.setExtra(name, arr)
	}
	return out
}

func typicalOperatingPoint() (af, temps [microarch.NumStructures]float64, vdd, dieAvg float64) {
	af = [microarch.NumStructures]float64{0.15, 0.24, 0.15, 0.23, 0.13, 0.19, 0.06}
	for i := range temps {
		temps[i] = 350 + float64(i)
	}
	return af, temps, 1.3, 349
}

func TestUnitConstantsValidate(t *testing.T) {
	if err := UnitConstants().Validate(); err != nil {
		t.Fatal(err)
	}
	var zero Constants
	if err := zero.Validate(); err == nil {
		t.Fatal("zero constants accepted")
	}
}

func TestCalibrate(t *testing.T) {
	raw := [NumMechanisms]float64{2e-9, 5e4, 1e-3, 2.5e3}
	c, err := Calibrate(raw, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for m, k := range c.K {
		if got := k * raw[m]; math.Abs(got-1000) > 1e-9 {
			t.Errorf("mechanism %v: K·raw = %v, want 1000", Mechanism(m), got)
		}
	}
}

func TestCalibrateRejections(t *testing.T) {
	raw := [NumMechanisms]float64{1, 1, 1, 1}
	if _, err := Calibrate(raw, 0); err == nil {
		t.Error("zero target accepted")
	}
	raw[2] = 0
	if _, err := Calibrate(raw, 1000); err == nil {
		t.Error("zero raw average accepted")
	}
}

func TestNewEvaluatorRejections(t *testing.T) {
	if _, err := NewEvaluator(DefaultParams(), UnitConstants(), scaling.Base(), []float64{1}); err == nil {
		t.Error("wrong area count accepted")
	}
	areas := floorplan.POWER4().Areas()
	areas[0] = -1
	if _, err := NewEvaluator(DefaultParams(), UnitConstants(), scaling.Base(), areas); err == nil {
		t.Error("negative area accepted")
	}
	var badTech scaling.Technology
	if _, err := NewEvaluator(DefaultParams(), UnitConstants(), badTech, floorplan.POWER4().Areas()); err == nil {
		t.Error("invalid tech accepted")
	}
	var zeroConsts Constants
	if _, err := NewEvaluator(DefaultParams(), zeroConsts, scaling.Base(), floorplan.POWER4().Areas()); err == nil {
		t.Error("zero constants accepted")
	}
}

func TestBreakdownViewsAgree(t *testing.T) {
	e := newBaseEvaluator(t, UnitConstants())
	af, temps, vdd, dieAvg := typicalOperatingPoint()
	b := e.Instant(af, temps, vdd, dieAvg)

	total := b.Total()
	var byMech, byStruct float64
	for _, v := range b.ByMechanism() {
		byMech += v
	}
	for _, v := range b.ByStructure() {
		byStruct += v
	}
	if math.Abs(byMech-total) > 1e-9*total || math.Abs(byStruct-total) > 1e-9*total {
		t.Fatalf("views disagree: total %v, Σmech %v, Σstruct %v", total, byMech, byStruct)
	}
	if total <= 0 {
		t.Fatal("typical operating point must have a positive failure rate")
	}
}

func TestTCDistributedByArea(t *testing.T) {
	e := newBaseEvaluator(t, UnitConstants())
	af, temps, vdd, dieAvg := typicalOperatingPoint()
	b := e.Instant(af, temps, vdd, dieAvg)
	wantTotal := DefaultParams().TCRate(dieAvg)
	if got := b.ByMechanism()[TC]; math.Abs(got-wantTotal) > 1e-9*wantTotal {
		t.Fatalf("TC total = %v, want %v (single package-level rate)", got, wantTotal)
	}
	// Per-structure TC shares follow area fractions.
	areas := floorplan.POWER4().Areas()
	lsuShare := b.ByStructMech[microarch.StructLSU][TC] / wantTotal
	wantShare := areas[microarch.StructLSU] / 81.0
	if math.Abs(lsuShare-wantShare) > 1e-9 {
		t.Fatalf("LSU TC share = %v, want area fraction %v", lsuShare, wantShare)
	}
}

func TestConstantsScaleLinearly(t *testing.T) {
	af, temps, vdd, dieAvg := typicalOperatingPoint()
	unit := newBaseEvaluator(t, UnitConstants())
	scaledConsts := UnitConstants()
	scaledConsts.K[EM] = 10
	scaledConsts.K[TDDB] = 3
	scaled := newBaseEvaluator(t, scaledConsts)
	bu := unit.Instant(af, temps, vdd, dieAvg)
	bs := scaled.Instant(af, temps, vdd, dieAvg)
	mu, ms := bu.ByMechanism(), bs.ByMechanism()
	if math.Abs(ms[EM]/mu[EM]-10) > 1e-9 {
		t.Errorf("EM constant not linear: ratio %v", ms[EM]/mu[EM])
	}
	if math.Abs(ms[TDDB]/mu[TDDB]-3) > 1e-9 {
		t.Errorf("TDDB constant not linear: ratio %v", ms[TDDB]/mu[TDDB])
	}
	if math.Abs(ms[SM]/mu[SM]-1) > 1e-9 {
		t.Errorf("SM changed without constant change")
	}
}

func TestAccumulateAveraging(t *testing.T) {
	e := newBaseEvaluator(t, UnitConstants())
	af, temps, vdd, dieAvg := typicalOperatingPoint()
	b1 := e.Instant(af, temps, vdd, dieAvg)
	for i := range temps {
		temps[i] += 20
	}
	b2 := e.Instant(af, temps, vdd, dieAvg+20)
	// 1 unit of b1, 3 units of b2.
	e.Accumulate(b1, 1)
	e.Accumulate(b2, 3)
	avg := e.Average()
	wantTotal := (b1.Total() + 3*b2.Total()) / 4
	if math.Abs(avg.Total()-wantTotal) > 1e-9*wantTotal {
		t.Fatalf("average total = %v, want %v", avg.Total(), wantTotal)
	}
	if e.AccumulatedTime() != 4 {
		t.Fatalf("accumulated time = %v, want 4", e.AccumulatedTime())
	}
	e.Reset()
	if e.Average().Total() != 0 || e.AccumulatedTime() != 0 {
		t.Fatal("Reset must clear the accumulator")
	}
}

func TestAccumulateIgnoresNonPositiveDurations(t *testing.T) {
	e := newBaseEvaluator(t, UnitConstants())
	af, temps, vdd, dieAvg := typicalOperatingPoint()
	b := e.Instant(af, temps, vdd, dieAvg)
	e.Accumulate(b, 0)
	e.Accumulate(b, -5)
	if e.AccumulatedTime() != 0 {
		t.Fatal("non-positive durations must be ignored")
	}
}

func TestEmptyAverageIsZero(t *testing.T) {
	e := newBaseEvaluator(t, UnitConstants())
	if got := e.Average().Total(); got != 0 {
		t.Fatalf("empty average total = %v, want 0", got)
	}
}

func TestHotterRunHasHigherFIT(t *testing.T) {
	// The core workload-dependence property (§5.2): at the same activity,
	// a hotter application sees a strictly higher total FIT.
	e := newBaseEvaluator(t, UnitConstants())
	af, temps, vdd, dieAvg := typicalOperatingPoint()
	f := func(deltaRaw float64) bool {
		delta := math.Mod(math.Abs(deltaRaw), 25) + 0.1
		var hot [microarch.NumStructures]float64
		for i := range hot {
			hot[i] = temps[i] + delta
		}
		cold := e.Instant(af, temps, vdd, dieAvg)
		warm := e.Instant(af, hot, vdd, dieAvg+delta)
		return warm.Total() > cold.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHigherActivityHasHigherFIT(t *testing.T) {
	e := newBaseEvaluator(t, UnitConstants())
	af, temps, vdd, dieAvg := typicalOperatingPoint()
	var busy [microarch.NumStructures]float64
	for i := range busy {
		busy[i] = af[i] * 2
	}
	idle := e.Instant(af, temps, vdd, dieAvg)
	loaded := e.Instant(busy, temps, vdd, dieAvg)
	// Only EM depends on activity. (Compare mechanisms directly: with unit
	// constants the raw EM magnitude is far below TC's, so the total is
	// not a numerically meaningful comparison.)
	mi, ml := idle.ByMechanism(), loaded.ByMechanism()
	if ml[EM] <= mi[EM] {
		t.Fatal("doubling activity must raise the EM FIT")
	}
	for _, m := range []Mechanism{SM, TDDB, TC} {
		if math.Abs(mi[m]-ml[m]) > 1e-12*mi[m] {
			t.Errorf("%v changed with activity", m)
		}
	}
}

func TestSOFRAdditivityAcrossTechnologies(t *testing.T) {
	// MTTF = 10⁹/ΣFIT: doubling every rate must halve MTTF.
	e := newBaseEvaluator(t, UnitConstants())
	af, temps, vdd, dieAvg := typicalOperatingPoint()
	b := e.Instant(af, temps, vdd, dieAvg)
	doubled := b.scale(2)
	if math.Abs(doubled.MTTFYears()*2-b.MTTFYears()) > 1e-9*b.MTTFYears() {
		t.Fatal("MTTF must be inversely proportional to total FIT")
	}
}

func TestScaledTechnologyRaisesFITAtSameTemperature(t *testing.T) {
	// Even with temperature held fixed, the 65nm (1.0V) point carries the
	// EM geometry and TDDB tox/area penalties and must exceed the base
	// total FIT.
	af, temps, _, dieAvg := typicalOperatingPoint()
	tech65, err := scaling.ByName("65nm (1.0V)")
	if err != nil {
		t.Fatal(err)
	}
	fp65, err := floorplan.POWER4().Scaled(tech65.RelArea)
	if err != nil {
		t.Fatal(err)
	}
	base := newBaseEvaluator(t, UnitConstants())
	e65, err := NewEvaluator(DefaultParams(), UnitConstants(), tech65, fp65.Areas())
	if err != nil {
		t.Fatal(err)
	}
	b0 := base.Instant(af, temps, 1.3, dieAvg)
	b65 := e65.Instant(af, temps, 1.0, dieAvg)
	m0, m65 := b0.ByMechanism(), b65.ByMechanism()
	if m65[EM] <= m0[EM] {
		t.Errorf("EM at 65nm (%v) not above base (%v) at equal T", m65[EM], m0[EM])
	}
	if m65[TDDB] <= m0[TDDB] {
		t.Errorf("TDDB at 65nm (%v) not above base (%v) at equal T", m65[TDDB], m0[TDDB])
	}
	// SM and TC depend only on temperature, which we held fixed.
	if math.Abs(m65[SM]-m0[SM]) > 1e-9*m0[SM] {
		t.Errorf("SM changed across tech at fixed T")
	}
	if math.Abs(m65[TC]-m0[TC]) > 1e-9*m0[TC] {
		t.Errorf("TC changed across tech at fixed T")
	}
}
