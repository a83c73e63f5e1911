package core

import "github.com/ramp-sim/ramp/internal/scaling"

// The built-in mechanism models. The paper's four (em/sm/tddb/tc) wrap
// the Params rate functions the seed shipped with — the registry adds
// selection, not new numerics, and an unspecified request still evaluates
// exactly these four. nbti, hci, and tc-rainflow are the post-2004
// additions (see PAPERS.md and SNIPPETS.md snippets 2–3).

// preparer is implemented by the built-in models with a per-sample rate:
// prepare resolves once, for one (Params, technology) pair, what the rate
// reads from them (its technology factor, where it has one) and returns
// the per-sample remainder, equal to Rate bit for bit. p must outlive the
// returned function. NewEvaluatorForSet evaluates any other model (one
// registered from outside this package, or tc-rainflow, whose Rate is 0)
// through Rate.
type preparer interface {
	prepare(p *Params, tech scaling.Technology) func(Sample) float64
}

func init() {
	mustRegister(emModel{})
	mustRegister(smModel{})
	mustRegister(tddbModel{})
	mustRegister(tcModel{})
	mustRegister(nbtiModel{})
	mustRegister(hciModel{})
	mustRegister(tcRainflowModel{})
}

type emModel struct{}

func (emModel) Name() string { return MechEM }
func (emModel) Description() string {
	return "Electromigration: MTTF ∝ J^{-n}·e^{Ea/kT} with κ-geometry and J_max derating (§2, §3)"
}
func (emModel) ParamsDescription() string {
	return "EM.N current-density exponent (1.1), EM.ActivationEnergyEV (0.9), EM.GeomExponent wire-geometry exponent (1.7)"
}
func (emModel) Scope() MechanismScope { return ScopeStructure }
func (emModel) Rate(s Sample, p Params, tech scaling.Technology) float64 {
	return p.EMRate(s.AF, s.TempK, tech)
}
func (emModel) prepare(p *Params, tech scaling.Technology) func(Sample) float64 {
	em, jMax, geom := &p.EM, tech.JMaxMAum2, p.EM.techFactor(tech)
	return func(s Sample) float64 { return em.rate(s.AF, s.TempK, jMax, geom) }
}

type smModel struct{}

func (smModel) Name() string { return MechSM }
func (smModel) Description() string {
	return "Stress migration: MTTF ∝ |T₀−T|^{-m}·e^{Ea/kT} (§2)"
}
func (smModel) ParamsDescription() string {
	return "SM.M stress exponent (2.5), SM.ActivationEnergyEV (0.9), SM.T0K deposition temperature (500)"
}
func (smModel) Scope() MechanismScope { return ScopeStructure }
func (smModel) Rate(s Sample, p Params, tech scaling.Technology) float64 {
	return p.SMRate(s.TempK)
}
func (smModel) prepare(p *Params, tech scaling.Technology) func(Sample) float64 {
	sm := &p.SM
	return func(s Sample) float64 { return sm.rate(s.TempK) }
}

type tddbModel struct{}

func (tddbModel) Name() string { return MechTDDB }
func (tddbModel) Description() string {
	return "Gate-oxide breakdown: Wu et al. voltage/temperature model with Eq. 5 technology scaling (§2, §3)"
}
func (tddbModel) ParamsDescription() string {
	return "TDDB.A/B voltage-acceleration fit (78, −0.081), TDDB.XEV/YEVK/ZEVPerK temperature fit, TDDB.ToxDecadeNm oxide-thinning decade (1.45), TDDB.VoltExponent (10.5), TDDB.AreaExponent (−1)"
}
func (tddbModel) Scope() MechanismScope { return ScopeStructure }
func (tddbModel) Rate(s Sample, p Params, tech scaling.Technology) float64 {
	return p.TDDBRate(s.VddV, s.TempK, tech)
}
func (tddbModel) prepare(p *Params, tech scaling.Technology) func(Sample) float64 {
	td, nomV, f := &p.TDDB, tech.VddV, p.TDDBTechFactor(tech)
	return func(s Sample) float64 { return td.rate(s.VddV, s.TempK, nomV, f) }
}

type tcModel struct{}

func (tcModel) Name() string { return MechTC }
func (tcModel) Description() string {
	return "Thermal cycling (package): MTTF ∝ (T_avg−T_ambient)^{-q}, large power-on/off cycles (§2)"
}
func (tcModel) ParamsDescription() string {
	return "TC.Q Coffin-Manson exponent (2.35), TC.AmbientK ambient reference (318.15)"
}
func (tcModel) Scope() MechanismScope { return ScopePackage }
func (tcModel) Rate(s Sample, p Params, tech scaling.Technology) float64 {
	return p.TCRate(s.DieAvgTempK)
}
func (tcModel) prepare(p *Params, tech scaling.Technology) func(Sample) float64 {
	tc := &p.TC
	return func(s Sample) float64 { return tc.rate(s.DieAvgTempK) }
}

type nbtiModel struct{}

func (nbtiModel) Name() string { return MechNBTI }
func (nbtiModel) Description() string {
	return "NBTI aging: RAMP four-constant temperature term with oxide-field acceleration and activity recovery (post-2004)"
}
func (nbtiModel) ParamsDescription() string {
	return "NBTI.A/B/C/D temperature fit (1.6328, 0.07377, 0.01, −0.06852), NBTI.Beta time slope (0.3), NBTI.FieldExponent oxide-field acceleration (6), NBTI.RecoveryWeight dynamic-recovery relief (0.5)"
}
func (nbtiModel) Scope() MechanismScope { return ScopeStructure }
func (nbtiModel) Rate(s Sample, p Params, tech scaling.Technology) float64 {
	return p.NBTIRate(s.AF, s.TempK, s.VddV, tech)
}

// prepare caches the field factor at the technology's nominal supply; an
// off-nominal (DVS, DRM) sample computes its own.
func (nbtiModel) prepare(p *Params, tech scaling.Technology) func(Sample) float64 {
	np := p.NBTIOrDefault()
	nominal := np.fieldFactor(tech.VddV, tech)
	return func(s Sample) float64 {
		f := nominal
		if s.VddV != tech.VddV {
			f = np.fieldFactor(s.VddV, tech)
		}
		return np.rate(s.AF, s.TempK, s.VddV, f)
	}
}

type hciModel struct{}

func (hciModel) Name() string { return MechHCI }
func (hciModel) Description() string {
	return "Hot-carrier injection: switching-driven with lateral-field acceleration across technology nodes (post-2004)"
}
func (hciModel) ParamsDescription() string {
	return "HCI.ActivationEnergyEV apparent activation energy (−0.15; HCI worsens when cold), HCI.FieldExponent lateral-field acceleration (3)"
}
func (hciModel) Scope() MechanismScope { return ScopeStructure }
func (hciModel) Rate(s Sample, p Params, tech scaling.Technology) float64 {
	return p.HCIRate(s.AF, s.TempK, s.VddV, tech)
}

// prepare caches the field factor at the technology's nominal supply, as
// nbtiModel's does.
func (hciModel) prepare(p *Params, tech scaling.Technology) func(Sample) float64 {
	hp := p.HCIOrDefault()
	nominal := hp.fieldFactor(tech.VddV, tech)
	return func(s Sample) float64 {
		f := nominal
		if s.VddV != tech.VddV {
			f = hp.fieldFactor(s.VddV, tech)
		}
		return hp.rate(s.AF, s.TempK, s.VddV, f)
	}
}

type tcRainflowModel struct{}

func (tcRainflowModel) Name() string { return MechTCRainflow }
func (tcRainflowModel) Description() string {
	return "Rainflow-counted thermal cycling: ASTM E1049 cycle counting over the die-average temperature series with Coffin-Manson + Arrhenius damage per cycle (SDTA-style); higher-fidelity alternative to tc"
}
func (tcRainflowModel) ParamsDescription() string {
	return "TCRainflow.Q Coffin-Manson exponent (6, brittle fracture), TCRainflow.ActivationEnergyEV Arrhenius Eatc (0.7), TCRainflow.MinRangeK peak threshold (0, count every cycle)"
}
func (tcRainflowModel) Scope() MechanismScope { return ScopePackage }

// Rate returns 0: the rainflow model is defined only over a whole series
// (SeriesRate), so it contributes nothing to instantaneous analyses such
// as the §5.2 worst-case operating point.
func (tcRainflowModel) Rate(s Sample, p Params, tech scaling.Technology) float64 { return 0 }

func (tcRainflowModel) SeriesRate(dieAvgTempK, durUS []float64, p Params) float64 {
	return p.TCRainflowRate(dieAvgTempK, durUS)
}

var _ SeriesMechanism = tcRainflowModel{}
