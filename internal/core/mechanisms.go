// Package core implements RAMP — the microarchitecture-level lifetime
// reliability model of Srinivasan et al. — extended with the technology
// scaling parameters this paper introduces. It models the four intrinsic
// hard-failure mechanisms (§2):
//
//   - Electromigration (EM):      MTTF ∝ J^{-n}·e^{Ea/kT}
//   - Stress migration (SM):      MTTF ∝ |T₀−T|^{-m}·e^{Ea/kT}
//   - Gate-oxide breakdown (TDDB): MTTF ∝ (1/V)^{a−bT}·e^{(X+Y/T+ZT)/kT}
//   - Thermal cycling (TC):       MTTF ∝ (1/(T_avg−T_ambient))^{q}
//
// combined with the sum-of-failure-rates (SOFR) model over all structures,
// and the paper's scaling extensions (§3): the κ² interconnect-geometry
// factor and J_max derating for EM, and the gate-oxide thickness, area,
// and supply-voltage factors for TDDB (Eq. 5).
//
// Rates are expressed as FITs (failures per 10⁹ device-hours) up to the
// per-mechanism proportionality constants, which are obtained by the
// paper's reliability-qualification calibration (§4.4): each mechanism's
// suite-average FIT at the 180nm base point is set to 1000, for a 4000-FIT
// (≈30-year MTTF) processor.
package core

import (
	"fmt"
	"math"

	"github.com/ramp-sim/ramp/internal/cycles"
	"github.com/ramp-sim/ramp/internal/phys"
	"github.com/ramp-sim/ramp/internal/scaling"
)

// Mechanism identifies one intrinsic failure mechanism.
type Mechanism int

// The four modeled mechanisms.
const (
	EM Mechanism = iota
	SM
	TDDB
	TC

	// NumMechanisms is the number of modeled failure mechanisms.
	NumMechanisms int = iota
)

var _mechanismNames = [NumMechanisms]string{"EM", "SM", "TDDB", "TC"}

// String returns the mechanism's acronym as used in the paper.
func (m Mechanism) String() string {
	if m < 0 || int(m) >= NumMechanisms {
		return fmt.Sprintf("mechanism(%d)", int(m))
	}
	return _mechanismNames[m]
}

// Mechanisms returns all mechanisms in paper order.
func Mechanisms() []Mechanism {
	return []Mechanism{EM, SM, TDDB, TC}
}

// EMParams holds the electromigration model constants.
type EMParams struct {
	// N is the current-density exponent (1.1 for copper, §2).
	N float64
	// ActivationEnergyEV is Ea_EM in eV (0.9 for copper).
	ActivationEnergyEV float64
	// GeomExponent is the exponent applied to the cumulative wire scaling
	// factor κ: MTTF scales by κ^GeomExponent (2 in the paper's §3
	// derivation — w and h both scale while the interface thickness δ
	// does not).
	GeomExponent float64
}

// SMParams holds the stress-migration model constants.
type SMParams struct {
	// M is the stress exponent (2.5 for sputtered copper).
	M float64
	// ActivationEnergyEV is Ea_SM in eV (0.9).
	ActivationEnergyEV float64
	// T0K is the stress-free (deposition) temperature (500K, sputtering).
	T0K float64
}

// TDDBParams holds the gate-oxide breakdown constants from Wu et al. [17]
// plus this paper's scaling extension parameters.
type TDDBParams struct {
	// A, B are the voltage-acceleration fitting parameters: the voltage
	// exponent is (A − B·T). The paper lists a=78, b=−0.081/K.
	A, B float64
	// XEV, YEVK, ZEVPerK are the temperature fitting parameters X (eV),
	// Y (eV·K), and Z (eV/K).
	XEV, YEVK, ZEVPerK float64
	// ToxDecadeNm is the gate-oxide thinning (nm) that costs one decade of
	// lifetime in the scaling relation MTTF ∝ 10^{-Δtox/ToxDecadeNm}.
	// The paper quotes 0.22nm/decade from Stathis [10]; applied literally
	// together with the printed voltage term this collapses TDDB lifetime
	// by >10⁵ by 65nm, contradicting the paper's own Figure 5, so the
	// default is an effective value calibrated to reproduce the paper's
	// reported TDDB trajectory (see DESIGN.md).
	ToxDecadeNm float64
	// VoltExponent is the effective cross-technology voltage-acceleration
	// exponent used in the Eq. 5 scaling factor (see DESIGN.md: the
	// printed (a−bT) ≈ 108 cannot reproduce the paper's reported 65nm
	// FIT ratios; ≈9 can). The printed exponent is retained for
	// within-technology voltage excursions (DVS).
	VoltExponent float64
	// AreaExponent is the exponent on the relative gate-oxide area in the
	// Eq. 5 scaling factor: FIT × RelArea^AreaExponent. The paper's
	// printed Eq. 5 corresponds to −1 (total FIT grows as area shrinks).
	AreaExponent float64
}

// TCParams holds the thermal-cycling (Coffin-Manson) constants.
type TCParams struct {
	// Q is the Coffin-Manson exponent (2.35 for the package).
	Q float64
	// AmbientK is the ambient temperature against which the average large
	// thermal cycle is measured.
	AmbientK float64
}

// NBTIParams holds the negative-bias temperature instability constants:
// the RAMP-style four-constant temperature term with a time-slope
// exponent, plus an oxide-field acceleration and an activity-recovery
// weight. NBTI postdates the paper (§2 models only EM/SM/TDDB/TC); the
// model is selectable through the mechanism registry.
type NBTIParams struct {
	// A, B, C, D are the fitting constants of the RAMP NBTI temperature
	// term MTTF ∝ [(ln(A/(1+2e^{B/kT})) − ln(A/(1+2e^{B/kT}) − C)) ·
	// T/e^{D/kT}]^{1/β}.
	A, B, C, D float64
	// Beta is the time-slope exponent β of the degradation power law.
	Beta float64
	// FieldExponent is the oxide-field acceleration exponent: rate scales
	// by ((V/tox)/(V_base/tox_base))^FieldExponent across technologies —
	// thinner oxides at comparable voltage stress the PMOS gate harder.
	FieldExponent float64
	// RecoveryWeight weights dynamic-recovery relief: the stress duty
	// factor is 1 − RecoveryWeight·AF (NBTI stresses a PMOS while its
	// gate is low; switching activity interleaves recovery phases).
	RecoveryWeight float64
}

// DefaultNBTIParams returns the RAMP-project NBTI fitting constants with
// a γ=6 field acceleration.
func DefaultNBTIParams() NBTIParams {
	return NBTIParams{
		A: 1.6328, B: 0.07377, C: 0.01, D: -0.06852,
		Beta:           0.3,
		FieldExponent:  6,
		RecoveryWeight: 0.5,
	}
}

// HCIParams holds the hot-carrier injection constants.
type HCIParams struct {
	// ActivationEnergyEV is the apparent activation energy; classic HCI
	// is worse at low temperature (impact ionisation), so the default is
	// negative.
	ActivationEnergyEV float64
	// FieldExponent is the lateral-field acceleration exponent: rate
	// scales by ((V/L)/(V_base/L_base))^FieldExponent across technologies
	// — channel length shrinks faster than supply voltage, so hot-carrier
	// stress grows with scaling.
	FieldExponent float64
}

// DefaultHCIParams returns the hot-carrier defaults.
func DefaultHCIParams() HCIParams {
	return HCIParams{ActivationEnergyEV: -0.15, FieldExponent: 3}
}

// TCRainflowParams holds the rainflow-counted thermal-cycling constants:
// Coffin-Manson with an Arrhenius term per counted cycle, after the SDTA
// Lifetime model — Ntc = Atc·(ΔT)^(−q)·e^{Eatc/(k·Tmax)} cycles to
// failure (Atc is absorbed by the qualification calibration).
type TCRainflowParams struct {
	// Q is the Coffin-Manson exponent; 6–9 for brittle fracture (the
	// paper's package TC model uses 2.35 for ductile solder).
	Q float64
	// ActivationEnergyEV is the Arrhenius activation energy Eatc
	// (typically 0.3–1.5 eV).
	ActivationEnergyEV float64
	// MinRangeK is the peak-detection threshold: cycles with a smaller
	// swing are ignored. The default is 0 — count everything — because
	// the §4.4 qualification rescales the mechanism to the FIT budget, so
	// sub-Kelvin die-average swings (all a steady workload produces) must
	// still register damage; raise it (SDTA uses 2K) to ablate
	// elastic-only cycles away.
	MinRangeK float64
}

// DefaultTCRainflowParams returns the SDTA-flavoured exponents with no
// cycle-range floor (see MinRangeK).
func DefaultTCRainflowParams() TCRainflowParams {
	return TCRainflowParams{Q: 6, ActivationEnergyEV: 0.7}
}

// Params bundles all mechanism constants. The paper's four are value
// fields; constants of registry mechanisms outside the default set are
// optional pointers with omitempty so a configuration that never names
// them marshals — and therefore content-addresses — byte-identically to
// releases that predate them. Use the *OrDefault accessors to read them.
type Params struct {
	EM   EMParams
	SM   SMParams
	TDDB TDDBParams
	TC   TCParams

	NBTI       *NBTIParams       `json:"NBTI,omitempty"`
	HCI        *HCIParams        `json:"HCI,omitempty"`
	TCRainflow *TCRainflowParams `json:"TCRainflow,omitempty"`
}

// NBTIOrDefault returns the NBTI constants, falling back to the defaults
// when the optional override is absent.
func (p Params) NBTIOrDefault() NBTIParams {
	if p.NBTI != nil {
		return *p.NBTI
	}
	return DefaultNBTIParams()
}

// HCIOrDefault returns the HCI constants or their defaults.
func (p Params) HCIOrDefault() HCIParams {
	if p.HCI != nil {
		return *p.HCI
	}
	return DefaultHCIParams()
}

// TCRainflowOrDefault returns the rainflow-TC constants or their defaults.
func (p Params) TCRainflowOrDefault() TCRainflowParams {
	if p.TCRainflow != nil {
		return *p.TCRainflow
	}
	return DefaultTCRainflowParams()
}

// DefaultParams returns the RAMP constants used throughout the paper.
func DefaultParams() Params {
	return Params{
		EM: EMParams{
			N:                  1.1,
			ActivationEnergyEV: 0.9,
			// The paper's §3 derivation gives κ²; an effective 1.7
			// reproduces the paper's reported EM trajectory (Fig. 5)
			// together with this model's simulated temperatures
			// (see EXPERIMENTS.md).
			GeomExponent: 1.7,
		},
		SM: SMParams{
			M:                  2.5,
			ActivationEnergyEV: 0.9,
			T0K:                500,
		},
		TDDB: TDDBParams{
			A:            78,
			B:            -0.081,
			XEV:          0.759,
			YEVK:         -66.8,
			ZEVPerK:      -8.37e-4,
			ToxDecadeNm:  1.45,
			VoltExponent: 10.5,
			AreaExponent: -1,
		},
		TC: TCParams{
			Q:        2.35,
			AmbientK: phys.CelsiusToKelvin(45),
		},
	}
}

// Validate checks the constants for plausibility.
func (p Params) Validate() error {
	if p.EM.N <= 0 || p.EM.ActivationEnergyEV <= 0 || p.EM.GeomExponent < 0 {
		return fmt.Errorf("core: invalid EM params %+v", p.EM)
	}
	if p.SM.M <= 0 || p.SM.ActivationEnergyEV <= 0 || p.SM.T0K <= 0 {
		return fmt.Errorf("core: invalid SM params %+v", p.SM)
	}
	if p.TDDB.A <= 0 || p.TDDB.XEV == 0 || p.TDDB.ToxDecadeNm <= 0 || p.TDDB.VoltExponent < 0 {
		return fmt.Errorf("core: invalid TDDB params %+v", p.TDDB)
	}
	if p.TC.Q <= 0 || p.TC.AmbientK <= 0 {
		return fmt.Errorf("core: invalid TC params %+v", p.TC)
	}
	if n := p.NBTI; n != nil {
		if n.A <= 0 || n.Beta <= 0 || n.FieldExponent < 0 ||
			n.RecoveryWeight < 0 || n.RecoveryWeight > 1 {
			return fmt.Errorf("core: invalid NBTI params %+v", *n)
		}
	}
	if h := p.HCI; h != nil {
		if h.FieldExponent < 0 || math.IsNaN(h.ActivationEnergyEV) {
			return fmt.Errorf("core: invalid HCI params %+v", *h)
		}
	}
	if r := p.TCRainflow; r != nil {
		if r.Q <= 0 || r.MinRangeK < 0 || math.IsNaN(r.ActivationEnergyEV) {
			return fmt.Errorf("core: invalid TCRainflow params %+v", *r)
		}
	}
	return nil
}

// The built-in rates below are each written once, as two pieces: a
// factor fixed by the technology point (and, for NBTI and HCI, by the
// supply voltage), and a per-sample part that takes the factor as an
// argument. The public Params.*Rate functions compose the two on every
// call; an Evaluator computes the factor once per technology point
// (prepare, in builtins.go) and calls the per-sample part alone, so both
// paths produce the same bits.

// EMRate returns the electromigration failure rate (up to the calibration
// constant) of a structure with activity factor af at temperature tK on
// technology tech: FIT ∝ (p·J_max)^n · e^{−Ea/kT} · κ^{−GeomExponent}.
func (p Params) EMRate(af, tK float64, tech scaling.Technology) float64 {
	return p.EM.rate(af, tK, tech.JMaxMAum2, p.EM.techFactor(tech))
}

// techFactor returns EM's interconnect-geometry factor κ^{−GeomExponent}.
func (em *EMParams) techFactor(tech scaling.Technology) float64 {
	return math.Pow(tech.WireScale, -em.GeomExponent)
}

// rate is EMRate given the technology's J_max and geometry factor geom.
func (em *EMParams) rate(af, tK, jMax, geom float64) float64 {
	if af < 0 {
		af = 0
	}
	j := af * jMax
	if j == 0 || tK <= 0 {
		return 0
	}
	return math.Pow(j, em.N) *
		math.Exp(-em.ActivationEnergyEV/(phys.BoltzmannEV*tK)) *
		geom
}

// SMRate returns the stress-migration failure rate (up to calibration) at
// temperature tK: FIT ∝ |T₀−T|^{m} · e^{−Ea/kT}.
func (p Params) SMRate(tK float64) float64 { return p.SM.rate(tK) }

func (sm *SMParams) rate(tK float64) float64 {
	if tK <= 0 {
		return 0
	}
	dT := math.Abs(sm.T0K - tK)
	return math.Pow(dT, sm.M) *
		math.Exp(-sm.ActivationEnergyEV/(phys.BoltzmannEV*tK))
}

// tempTerm returns e^{−(X + Y/T + Z·T)/kT}, the FIT-side temperature
// acceleration of Eq. 3.
func (td *TDDBParams) tempTerm(tK float64) float64 {
	g := (td.XEV + float64(td.YEVK/tK) + float64(td.ZEVPerK*tK)) / (phys.BoltzmannEV * tK)
	return math.Exp(-g)
}

// TDDBTechFactor returns the Eq. 5 technology-scaling multiplier on TDDB
// FIT relative to the 180nm base: the gate-oxide thinning decade factor,
// the effective cross-technology voltage factor, and the oxide-area
// factor. Temperature enters separately through TDDBRate.
func (p Params) TDDBTechFactor(tech scaling.Technology) float64 {
	base := scaling.Base()
	tox := math.Pow(10, tech.ToxReductionNm()/p.TDDB.ToxDecadeNm)
	volt := math.Pow(tech.VddV/base.VddV, p.TDDB.VoltExponent)
	area := math.Pow(tech.RelArea, p.TDDB.AreaExponent)
	return tox * volt * area
}

// TDDBRate returns the gate-oxide breakdown failure rate (up to
// calibration) at temperature tK and supply voltage vddV on technology
// tech. Within-technology voltage excursions (e.g. DVS) are accelerated by
// the printed Wu et al. exponent (V/Vnom)^{a−bT}; cross-technology scaling
// uses TDDBTechFactor.
func (p Params) TDDBRate(vddV, tK float64, tech scaling.Technology) float64 {
	return p.TDDB.rate(vddV, tK, tech.VddV, p.TDDBTechFactor(tech))
}

// rate is TDDBRate given the technology's nominal supply nomV and its
// TDDBTechFactor.
func (td *TDDBParams) rate(vddV, tK, nomV, techFactor float64) float64 {
	if tK <= 0 || vddV <= 0 {
		return 0
	}
	exponent := td.A - float64(td.B*tK)
	dvs := math.Pow(vddV/nomV, exponent)
	return dvs * td.tempTerm(tK) * techFactor
}

// TCRate returns the package thermal-cycling failure rate (up to
// calibration) for an average die temperature dieAvgK:
// FIT ∝ (T_avg − T_ambient)^{q}.
func (p Params) TCRate(dieAvgK float64) float64 { return p.TC.rate(dieAvgK) }

func (tc *TCParams) rate(dieAvgK float64) float64 {
	dT := dieAvgK - tc.AmbientK
	if dT <= 0 {
		return 0
	}
	return math.Pow(dT, tc.Q)
}

// NBTIRate returns the negative-bias temperature instability failure rate
// (up to calibration) of a structure at temperature tK and supply vddV on
// technology tech: the inverse of the RAMP NBTI MTTF term, accelerated by
// the oxide field relative to the 180nm base and relieved by dynamic
// recovery in proportion to the activity factor.
func (p Params) NBTIRate(af, tK, vddV float64, tech scaling.Technology) float64 {
	np := p.NBTIOrDefault()
	return np.rate(af, tK, vddV, np.fieldFactor(vddV, tech))
}

// fieldFactor returns NBTI's oxide-field acceleration at supply vddV on
// technology tech, relative to the 180nm base.
func (np *NBTIParams) fieldFactor(vddV float64, tech scaling.Technology) float64 {
	base := scaling.Base()
	field := (vddV / tech.ToxNm) / (base.VddV / base.ToxNm)
	return math.Pow(field, np.FieldExponent)
}

// rate is NBTIRate given the fieldFactor at vddV.
func (np *NBTIParams) rate(af, tK, vddV, field float64) float64 {
	if tK <= 0 || vddV <= 0 {
		return 0
	}
	kT := phys.BoltzmannEV * tK
	inner := np.A / (1 + 2*math.Exp(np.B/kT))
	if inner <= np.C {
		return 0 // below the fit's validity range (sub-200K)
	}
	term := (math.Log(inner) - math.Log(inner-np.C)) * (tK / math.Exp(np.D/kT))
	if term <= 0 {
		return 0
	}
	rate := math.Pow(term, -1/np.Beta)
	rate *= field
	if af < 0 {
		af = 0
	} else if af > 1 {
		af = 1
	}
	return rate * (1 - float64(np.RecoveryWeight*af))
}

// HCIRate returns the hot-carrier injection failure rate (up to
// calibration) of a structure with activity factor af at temperature tK
// and supply vddV on technology tech: switching-driven (∝ af), with
// lateral-field acceleration relative to the 180nm base and an Arrhenius
// term whose default activation energy is negative (HCI is classically
// worse at low temperature).
func (p Params) HCIRate(af, tK, vddV float64, tech scaling.Technology) float64 {
	hp := p.HCIOrDefault()
	return hp.rate(af, tK, vddV, hp.fieldFactor(vddV, tech))
}

// fieldFactor returns HCI's lateral-field acceleration at supply vddV on
// technology tech, relative to the 180nm base.
func (hp *HCIParams) fieldFactor(vddV float64, tech scaling.Technology) float64 {
	base := scaling.Base()
	field := (vddV / float64(tech.FeatureNm)) / (base.VddV / float64(base.FeatureNm))
	return math.Pow(field, hp.FieldExponent)
}

// rate is HCIRate given the fieldFactor at vddV.
func (hp *HCIParams) rate(af, tK, vddV, field float64) float64 {
	if tK <= 0 || vddV <= 0 || af <= 0 {
		return 0
	}
	return af * field *
		math.Exp(-hp.ActivationEnergyEV/(phys.BoltzmannEV*tK))
}

// TCRainflowRate returns the rainflow-counted thermal-cycling failure
// rate (up to calibration) over a whole thermal series: rainflow cycle
// counting (ASTM E1049, internal/cycles) over the die-average temperature
// trace, each counted cycle contributing Coffin-Manson-with-Arrhenius
// damage 1/Ntc, Ntc = Atc·(ΔT)^{−q}·e^{Eatc/(k·Tmax)} — per second of
// simulated time. The rate is constant over the run by construction, so
// its time average is exact.
func (p Params) TCRainflowRate(dieAvgTempK, durUS []float64) float64 {
	rp := p.TCRainflowOrDefault()
	var durS float64
	for _, d := range durUS {
		durS += d
	}
	durS *= 1e-6
	if durS <= 0 {
		return 0
	}
	var damage float64
	for _, c := range cycles.Rainflow(dieAvgTempK) {
		if c.RangeK < rp.MinRangeK {
			continue
		}
		tmax := c.MeanK + float64(c.RangeK/2)
		if tmax <= 0 {
			continue
		}
		damage += float64(c.Count * math.Pow(c.RangeK, rp.Q) *
			math.Exp(-rp.ActivationEnergyEV/(phys.BoltzmannEV*tmax)))
	}
	return damage / durS
}
