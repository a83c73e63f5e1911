// Package thermal implements a HotSpot-class lumped-RC thermal model of
// the modeled die (paper §4.3). Each floorplan block is one silicon node
// with a vertical conduction path (die bulk + thermal interface material +
// spreading resistance) into a copper heat-spreader node, lateral coupling
// to adjacent blocks through the silicon, and a heat-sink node that
// convects to ambient through a configurable sink resistance (0.8 K/W for
// the base 180nm machine, per [14]).
//
// The network size follows the floorplan: the single-core 7-block die of
// the paper, or an N-core tiled CMP floorplan (floorplan.Tiled) whose
// cores couple laterally through the shared silicon and package.
//
// Like HotSpot, the model distinguishes the fast block time constants
// (milliseconds) from the very slow sink time constant (tens of seconds):
// simulations must initialise the sink with its steady-state temperature,
// which the paper does with a two-pass methodology (§4.3) implemented in
// internal/sim.
package thermal

import (
	"fmt"
	"math"

	"github.com/ramp-sim/ramp/internal/floorplan"
	"github.com/ramp-sim/ramp/internal/phys"
)

// Params holds the physical constants of the package stack.
type Params struct {
	// DieThicknessM is the silicon die thickness in metres.
	DieThicknessM float64
	// SiliconK and CopperK are thermal conductivities in W/(m·K).
	SiliconK, CopperK float64
	// TIMThicknessM and TIMK describe the thermal interface material
	// between die and spreader.
	TIMThicknessM, TIMK float64
	// SpreadCoeff is the dimensionless constriction/spreading coefficient
	// of the block→spreader path: R_spread = SpreadCoeff/(CopperK·√A).
	SpreadCoeff float64
	// SpreaderSinkR is the spreader→sink conduction resistance in K/W.
	SpreaderSinkR float64
	// SinkR is the sink→ambient convection resistance in K/W (0.8 at the
	// 180nm base point; scaled per application and technology to hold the
	// sink temperature constant, §4.3).
	SinkR float64
	// SpreaderC and SinkC are lumped heat capacities in J/K.
	SpreaderC, SinkC float64
	// AmbientK is the ambient temperature in Kelvin.
	AmbientK float64
}

// DefaultParams returns the package stack used for all experiments:
// HotSpot-like silicon/copper constants with the paper's 0.8 K/W sink.
func DefaultParams() Params {
	return Params{
		DieThicknessM: 0.5e-3,
		SiliconK:      phys.SiliconConductivity,
		CopperK:       phys.CopperConductivity,
		TIMThicknessM: 2.8e-5,
		TIMK:          5.0,
		SpreadCoeff:   0.75,
		SpreaderSinkR: 0.05,
		SinkR:         0.8,
		SpreaderC:     3.0,
		SinkC:         140.0,
		AmbientK:      phys.CelsiusToKelvin(45),
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"DieThicknessM", p.DieThicknessM},
		{"SiliconK", p.SiliconK},
		{"CopperK", p.CopperK},
		{"TIMThicknessM", p.TIMThicknessM},
		{"TIMK", p.TIMK},
		{"SpreadCoeff", p.SpreadCoeff},
		{"SpreaderSinkR", p.SpreaderSinkR},
		{"SinkR", p.SinkR},
		{"SpreaderC", p.SpreaderC},
		{"SinkC", p.SinkC},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("thermal: %s must be positive", c.name)
		}
	}
	if p.AmbientK < 200 || p.AmbientK > 400 {
		return fmt.Errorf("thermal: implausible ambient %v K", p.AmbientK)
	}
	return nil
}

// State is a snapshot of all node temperatures in Kelvin.
type State struct {
	// Blocks holds silicon block temperatures in floorplan block order
	// (StructureID order for the single-core floorplan).
	Blocks []float64
	// Spreader and Sink are the package node temperatures.
	Spreader, Sink float64
}

// MaxBlock returns the hottest block temperature (0 for an empty state).
func (s State) MaxBlock() float64 {
	if len(s.Blocks) == 0 {
		return 0
	}
	maxT := s.Blocks[0]
	for _, t := range s.Blocks[1:] {
		if t > maxT {
			maxT = t
		}
	}
	return maxT
}

// clone deep-copies the state.
func (s State) clone() State {
	out := State{Spreader: s.Spreader, Sink: s.Sink, Blocks: make([]float64, len(s.Blocks))}
	copy(out.Blocks, s.Blocks)
	return out
}

// Network is the RC model for one floorplan instance.
type Network struct {
	params   Params
	nBlocks  int
	spreader int // node index
	sink     int // node index
	nNodes   int
	// g[i][j] is the thermal conductance (W/K) between nodes i and j.
	g [][]float64
	// gAmb is the sink→ambient conductance.
	gAmb float64
	// c[i] is the node heat capacity in J/K.
	c []float64
	// temps are current node temperatures (transient state).
	temps []float64
	// scratch buffers reused across Step calls.
	next []float64
	// k1, mid, k2 are Heun-stage scratch buffers reused across StepHeun
	// calls so coarse-step integration stays allocation-free.
	k1, mid, k2 []float64
	// areaFrac is each block's fraction of die area (for averages).
	areaFrac []float64
}

// NewNetwork builds the RC network for a floorplan. The floorplan must
// already be scaled to the target technology; it may have any number of
// blocks (a single core's 7, or an N-core tiling).
func NewNetwork(fp floorplan.Floorplan, params Params) (*Network, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	nBlocks := len(fp.Blocks)
	n := &Network{
		params:   params,
		nBlocks:  nBlocks,
		spreader: nBlocks,
		sink:     nBlocks + 1,
		nNodes:   nBlocks + 2,
	}
	n.g = make([][]float64, n.nNodes)
	for i := range n.g {
		n.g[i] = make([]float64, n.nNodes)
	}
	n.c = make([]float64, n.nNodes)
	n.temps = make([]float64, n.nNodes)
	n.next = make([]float64, n.nNodes)
	n.k1 = make([]float64, n.nNodes)
	n.mid = make([]float64, n.nNodes)
	n.k2 = make([]float64, n.nNodes)
	n.areaFrac = make([]float64, nBlocks)

	dieArea := fp.DieArea()
	for i, b := range fp.Blocks {
		areaM2 := b.Area() * 1e-6 // mm² → m²
		// Vertical path: die conduction + TIM + spreading constriction.
		rCond := params.DieThicknessM / (params.SiliconK * areaM2)
		rTIM := params.TIMThicknessM / (params.TIMK * areaM2)
		rSpread := params.SpreadCoeff / (params.CopperK * math.Sqrt(areaM2))
		n.g[i][n.spreader] = 1 / (rCond + rTIM + rSpread)
		n.g[n.spreader][i] = n.g[i][n.spreader]
		n.c[i] = phys.SiliconVolumetricHeat * areaM2 * params.DieThicknessM
		n.areaFrac[i] = b.Area() / dieArea
	}
	// Lateral coupling between adjacent blocks (including across core
	// boundaries on tiled floorplans).
	for i := 0; i < nBlocks; i++ {
		for j := i + 1; j < nBlocks; j++ {
			edgeMm := fp.SharedEdge(i, j)
			if edgeMm <= 0 {
				continue
			}
			distM := fp.CenterDistance(i, j) * 1e-3
			edgeM := edgeMm * 1e-3
			r := distM / (params.SiliconK * params.DieThicknessM * edgeM)
			n.g[i][j] = 1 / r
			n.g[j][i] = n.g[i][j]
		}
	}
	// Package stack: the spreader and sink grow with die size implicitly
	// through the per-block couplings; their lumped capacities stay fixed.
	n.g[n.spreader][n.sink] = 1 / params.SpreaderSinkR
	n.g[n.sink][n.spreader] = n.g[n.spreader][n.sink]
	n.gAmb = 1 / params.SinkR
	n.c[n.spreader] = params.SpreaderC
	n.c[n.sink] = params.SinkC
	for i := range n.temps {
		n.temps[i] = params.AmbientK
	}
	return n, nil
}

// NumBlocks returns the number of silicon nodes.
func (n *Network) NumBlocks() int { return n.nBlocks }

// SetSinkR changes the sink→ambient resistance (used to hold the sink
// temperature constant across technologies, §4.3/§4.6).
func (n *Network) SetSinkR(r float64) error {
	if r <= 0 {
		return fmt.Errorf("thermal: sink resistance must be positive, got %v", r)
	}
	n.gAmb = 1 / r
	return nil
}

// SinkR returns the current sink→ambient resistance.
func (n *Network) SinkR() float64 { return 1 / n.gAmb }

// SteadyState solves the network for constant block powers (watts) and
// returns the equilibrium temperatures. It does not modify the transient
// state.
func (n *Network) SteadyState(blockPowerW []float64) (State, error) {
	if len(blockPowerW) != n.nBlocks {
		return State{}, fmt.Errorf("thermal: got %d powers, want %d", len(blockPowerW), n.nBlocks)
	}
	// Assemble G·T = P with the ambient folded into the sink row.
	a := make([][]float64, n.nNodes)
	for i := range a {
		a[i] = make([]float64, n.nNodes+1)
	}
	for i := 0; i < n.nNodes; i++ {
		var diag float64
		for j := 0; j < n.nNodes; j++ {
			if i == j {
				continue
			}
			diag += n.g[i][j]
			a[i][j] = -n.g[i][j]
		}
		if i == n.sink {
			diag += n.gAmb
			a[i][n.nNodes] += float64(n.gAmb * n.params.AmbientK)
		}
		a[i][i] = diag
		if i < n.nBlocks {
			a[i][n.nNodes] += blockPowerW[i]
		}
	}
	temps, err := solve(a)
	if err != nil {
		return State{}, err
	}
	s := State{Blocks: make([]float64, n.nBlocks)}
	copy(s.Blocks, temps[:n.nBlocks])
	s.Spreader = temps[n.spreader]
	s.Sink = temps[n.sink]
	return s, nil
}

// solve performs Gaussian elimination with partial pivoting on the
// augmented system a·x = b (last column of each row is b).
func solve(a [][]float64) ([]float64, error) {
	nn := len(a)
	for col := 0; col < nn; col++ {
		pivot := col
		for r := col + 1; r < nn; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-15 {
			return nil, fmt.Errorf("thermal: singular conductance matrix at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < nn; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k <= nn; k++ {
				a[r][k] -= float64(f * a[col][k])
			}
		}
	}
	x := make([]float64, nn)
	for i := nn - 1; i >= 0; i-- {
		sum := a[i][nn]
		for j := i + 1; j < nn; j++ {
			sum -= float64(a[i][j] * x[j])
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}

// Init sets the transient state. The state's block count must match.
func (n *Network) Init(s State) {
	copy(n.temps[:n.nBlocks], s.Blocks)
	n.temps[n.spreader] = s.Spreader
	n.temps[n.sink] = s.Sink
}

// Step advances the transient solution by dt seconds under the given block
// powers using forward Euler (dt must be far below the smallest node time
// constant; the paper's 1µs interval is ~1000× below it).
func (n *Network) Step(blockPowerW []float64, dt float64) {
	for i := 0; i < n.nNodes; i++ {
		var flow float64
		gi := n.g[i]
		ti := n.temps[i]
		for j := 0; j < n.nNodes; j++ {
			if gij := gi[j]; gij != 0 {
				flow += float64(gij * (n.temps[j] - ti))
			}
		}
		if i == n.sink {
			flow += float64(n.gAmb * (n.params.AmbientK - ti))
		}
		if i < n.nBlocks {
			flow += blockPowerW[i]
		}
		n.next[i] = ti + dt*flow/n.c[i]
	}
	n.temps, n.next = n.next, n.temps
}

// derivatives fills dst with dT/dt for every node under the given block
// powers and the current temperatures in src.
func (n *Network) derivatives(src, dst []float64, blockPowerW []float64) {
	for i := 0; i < n.nNodes; i++ {
		var flow float64
		gi := n.g[i]
		ti := src[i]
		for j := 0; j < n.nNodes; j++ {
			if gij := gi[j]; gij != 0 {
				flow += float64(gij * (src[j] - ti))
			}
		}
		if i == n.sink {
			flow += float64(n.gAmb * (n.params.AmbientK - ti))
		}
		if i < n.nBlocks {
			flow += blockPowerW[i]
		}
		dst[i] = flow / n.c[i]
	}
}

// StepHeun advances the transient solution by dt seconds using Heun's
// method (second-order Runge-Kutta). At the paper's 1µs interval the
// forward-Euler Step is ~1000× below the smallest node time constant and
// already accurate; StepHeun exists to verify that claim
// (TestHeunAgreesWithEuler) and for coarse-step uses.
func (n *Network) StepHeun(blockPowerW []float64, dt float64) {
	n.StepHeunErr(blockPowerW, dt, 0)
}

// StepHeunErr is the error-controlled Heun step behind coarse-grained
// integration: it computes one Heun step of dt seconds and the embedded
// local error estimate max_i |dt·(k2_i−k1_i)/2| — the difference between
// the second-order (Heun) and first-order (Euler) solutions, the standard
// embedded-pair estimate. When tolK > 0 and the estimate exceeds it, the
// step is rejected: the transient state is left untouched so the caller
// can retry with a smaller dt. tolK <= 0 always applies the step. The
// Heun stages use network-owned scratch, so the call never allocates.
func (n *Network) StepHeunErr(blockPowerW []float64, dt, tolK float64) (errK float64, applied bool) {
	n.derivatives(n.temps, n.k1, blockPowerW)
	for i := range n.mid {
		n.mid[i] = n.temps[i] + float64(dt*n.k1[i])
	}
	n.derivatives(n.mid, n.k2, blockPowerW)
	for i := range n.k1 {
		if e := math.Abs(dt * (n.k2[i] - n.k1[i]) / 2); e > errK {
			errK = e
		}
	}
	if tolK > 0 && errK > tolK {
		return errK, false
	}
	for i := range n.temps {
		n.temps[i] += float64(dt * (n.k1[i] + n.k2[i]) / 2)
	}
	return errK, true
}

// Current returns the transient temperatures.
func (n *Network) Current() State {
	s := State{Blocks: make([]float64, n.nBlocks)}
	copy(s.Blocks, n.temps[:n.nBlocks])
	s.Spreader = n.temps[n.spreader]
	s.Sink = n.temps[n.sink]
	return s
}

// CurrentInto fills a caller-provided state in place, avoiding the
// allocation of Current on hot paths. The state's Blocks slice must have
// the network's block count.
func (n *Network) CurrentInto(s *State) {
	copy(s.Blocks, n.temps[:n.nBlocks])
	s.Spreader = n.temps[n.spreader]
	s.Sink = n.temps[n.sink]
}

// DieAverage returns the area-weighted average block temperature of a
// state (used for the package-level thermal-cycling model).
func (n *Network) DieAverage(s State) float64 {
	var sum float64
	for i, t := range s.Blocks {
		sum += float64(t * n.areaFrac[i])
	}
	return sum
}

// Ambient returns the ambient temperature in Kelvin.
func (n *Network) Ambient() float64 { return n.params.AmbientK }
