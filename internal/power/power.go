// Package power implements the PowerTimer-like power model of the paper
// (§4.2): per-structure dynamic power driven by activity factors with
// realistic (imperfect) clock gating, plus area-proportional leakage power
// with the exponential temperature dependence of Heo et al. [7]:
//
//	P_leak(T) = P_leak(383K) · e^{β(T−383)},  β = 0.017
//
// Dynamic power is calibrated at the 180nm base point against the paper's
// Table 3 envelope and scaled across technologies as C_rel·(V/V₀)²·(f/f₀)
// (Table 4).
package power

import (
	"fmt"
	"math"

	"github.com/ramp-sim/ramp/internal/microarch"
	"github.com/ramp-sim/ramp/internal/scaling"
)

// Beta is the leakage-temperature curve-fitting constant from [7] (§4.2).
const Beta = 0.017

// LeakageRefK is the reference temperature (Kelvin) at which Table 4's
// leakage power densities are specified.
const LeakageRefK = 383.0

// Params configures the power model.
type Params struct {
	// PeakDynamicW is each structure's maximum dynamic power in watts at
	// the 180nm base point (V=1.3V, f=1.1GHz) with activity factor 1.
	PeakDynamicW [microarch.NumStructures]float64
	// GatingFloor is the fraction of peak dynamic power an idle structure
	// still burns under realistic clock gating (clock tree, latches).
	GatingFloor float64
	// Beta is the leakage-temperature exponent; defaults to Beta if zero.
	Beta float64
	// PowerGateIdle enables power gating of near-idle structures: when a
	// structure's activity factor is below PowerGateThreshold, its leakage
	// is cut to PowerGateResidual of nominal (header-switch off-state
	// leakage) and its dynamic floor is removed. Off for the paper's base
	// machine; provided as a leakage/reliability mitigation study for the
	// scaled nodes, where leakage dominates idle power.
	PowerGateIdle bool
	// PowerGateThreshold is the activity factor below which a structure is
	// considered gateable (default 0.01 when zero).
	PowerGateThreshold float64
	// PowerGateResidual is the fraction of leakage a gated structure still
	// draws (default 0.1 when zero).
	PowerGateResidual float64
}

// DefaultParams returns the 180nm calibration: per-structure peak dynamic
// powers chosen so the simulated SPEC suite reproduces the paper's Table 3
// power envelope (average total power 29.1W including leakage at operating
// temperature) with a 25% clock-gating floor, POWER4-style.
func DefaultParams() Params {
	var peak [microarch.NumStructures]float64
	peak[microarch.StructIFU] = 10.5
	peak[microarch.StructIDU] = 5.5
	peak[microarch.StructISU] = 12.5
	peak[microarch.StructFXU] = 12.5
	peak[microarch.StructFPU] = 12.5
	peak[microarch.StructLSU] = 14.0
	peak[microarch.StructBXU] = 4.5
	return Params{
		PeakDynamicW: peak,
		GatingFloor:  0.25,
		Beta:         Beta,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	for i, w := range p.PeakDynamicW {
		if w < 0 {
			return fmt.Errorf("power: negative peak power for %v", microarch.StructureID(i))
		}
	}
	if p.GatingFloor < 0 || p.GatingFloor >= 1 {
		return fmt.Errorf("power: gating floor %v outside [0,1)", p.GatingFloor)
	}
	if p.Beta < 0 {
		return fmt.Errorf("power: negative beta")
	}
	if p.PowerGateThreshold < 0 || p.PowerGateThreshold >= 1 {
		return fmt.Errorf("power: gate threshold %v outside [0,1)", p.PowerGateThreshold)
	}
	if p.PowerGateResidual < 0 || p.PowerGateResidual > 1 {
		return fmt.Errorf("power: gate residual %v outside [0,1]", p.PowerGateResidual)
	}
	return nil
}

// gateThreshold and gateResidual return the effective gating parameters.
func (p Params) gateThreshold() float64 {
	if p.PowerGateThreshold == 0 {
		return 0.01
	}
	return p.PowerGateThreshold
}

func (p Params) gateResidual() float64 {
	if p.PowerGateResidual == 0 {
		return 0.1
	}
	return p.PowerGateResidual
}

// Model evaluates per-structure power at one technology point.
type Model struct {
	params   Params
	tech     scaling.Technology
	dynScale float64
	// areasMm2 is the per-structure area at this technology, used for
	// leakage.
	areasMm2 [microarch.NumStructures]float64
	// appScale is a per-application circuit-calibration factor applied to
	// dynamic power (stands in for per-benchmark circuit-level detail a
	// 7-structure activity model cannot capture); 1.0 when unused.
	appScale float64
}

// NewModel builds a power model for one technology point. areasMm2 are the
// structure areas at that technology (i.e. already scaled by RelArea).
func NewModel(params Params, tech scaling.Technology, areasMm2 []float64) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if len(areasMm2) != microarch.NumStructures {
		return nil, fmt.Errorf("power: got %d areas, want %d", len(areasMm2), microarch.NumStructures)
	}
	if params.Beta == 0 {
		params.Beta = Beta
	}
	m := &Model{
		params:   params,
		tech:     tech,
		dynScale: tech.DynamicPowerScale(),
		appScale: 1.0,
	}
	for i, a := range areasMm2 {
		if a <= 0 {
			return nil, fmt.Errorf("power: non-positive area for %v", microarch.StructureID(i))
		}
		m.areasMm2[i] = a
	}
	return m, nil
}

// SetAppScale installs a per-application dynamic-power calibration factor.
func (m *Model) SetAppScale(s float64) error {
	if s <= 0 {
		return fmt.Errorf("power: app scale must be positive, got %v", s)
	}
	m.appScale = s
	return nil
}

// Dynamic returns each structure's dynamic power in watts for the given
// activity factors: peak · (floor + (1−floor)·AF), scaled to the model's
// technology and application.
func (m *Model) Dynamic(af [microarch.NumStructures]float64) [microarch.NumStructures]float64 {
	var out [microarch.NumStructures]float64
	f := m.params.GatingFloor
	for i, peak := range m.params.PeakDynamicW {
		a := af[i]
		if a < 0 {
			a = 0
		}
		if a > 1 {
			a = 1
		}
		if m.params.PowerGateIdle && a < m.params.gateThreshold() {
			// A power-gated structure draws no dynamic power at all: the
			// clock-tree floor is behind the header switch.
			out[i] = 0
			continue
		}
		out[i] = peak * (f + float64((1-f)*a)) * m.dynScale * m.appScale
	}
	return out
}

// LeakageActive returns one structure's leakage power at temperature tK
// given its current activity factor: power-gated structures (when enabled
// and near-idle) draw only the off-state residual.
func (m *Model) LeakageActive(s microarch.StructureID, tK, af float64) float64 {
	leak := m.LeakageAt(s, tK)
	if m.params.PowerGateIdle && af < m.params.gateThreshold() {
		return leak * m.params.gateResidual()
	}
	return leak
}

// DynamicAt returns per-structure dynamic power at a DVS operating point
// that deviates from the technology nominal: the usual activity-gated
// power additionally scaled by (V/Vnom)²·(f/fnom). Used by the dynamic
// reliability manager (internal/drm).
func (m *Model) DynamicAt(af [microarch.NumStructures]float64, vddV, freqGHz float64) [microarch.NumStructures]float64 {
	out := m.Dynamic(af)
	scale := (vddV / m.tech.VddV) * (vddV / m.tech.VddV) * (freqGHz / m.tech.FreqGHz)
	for i := range out {
		out[i] *= scale
	}
	return out
}

// LeakageAtV returns one structure's leakage power at temperature tK and
// supply voltage vddV, using a linear voltage derate around the nominal
// (leakage current is roughly proportional to V in the operating range).
func (m *Model) LeakageAtV(s microarch.StructureID, tK, vddV float64) float64 {
	return m.LeakageAt(s, tK) * vddV / m.tech.VddV
}

// Leakage returns each structure's leakage power in watts at the given
// per-structure temperatures (Kelvin).
func (m *Model) Leakage(tempK [microarch.NumStructures]float64) [microarch.NumStructures]float64 {
	var out [microarch.NumStructures]float64
	for i := range out {
		out[i] = m.LeakageAt(microarch.StructureID(i), tempK[i])
	}
	return out
}

// LeakageAt returns one structure's leakage power at temperature tK.
func (m *Model) LeakageAt(s microarch.StructureID, tK float64) float64 {
	return m.tech.LeakW383PerMm2 * m.areasMm2[s] * math.Exp(m.params.Beta*(tK-LeakageRefK))
}

// Total returns per-structure total power (dynamic + leakage) and the chip
// sum for the given activity factors and temperatures.
func (m *Model) Total(af, tempK [microarch.NumStructures]float64) (perStruct [microarch.NumStructures]float64, sum float64) {
	dyn := m.Dynamic(af)
	for i := range perStruct {
		perStruct[i] = dyn[i] + float64(m.LeakageAt(microarch.StructureID(i), tempK[i]))
		sum += perStruct[i]
	}
	return perStruct, sum
}

// Tech returns the technology point the model evaluates.
func (m *Model) Tech() scaling.Technology { return m.tech }

// AreasMm2 returns the per-structure areas the model uses for leakage.
func (m *Model) AreasMm2() [microarch.NumStructures]float64 { return m.areasMm2 }
