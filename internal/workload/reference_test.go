package workload

import (
	"io"
	"math/bits"
	"math/rand"

	"github.com/ramp-sim/ramp/internal/trace"
)

// refGenerator is the generator as it stood before its draws were moved
// off *rand.Rand onto the in-package rng with precomputed cuts, kept
// unchanged (bar names) as the reference the fast generator must match
// instruction for instruction. Comments on the copied code are trimmed;
// the originals live on the generator in workload.go.
type refBlock struct {
	startPC   uint64
	length    int     // instructions including the terminating branch
	takenBias float64 // probability the terminating branch is taken
	target    int     // block index jumped to when taken
}

type refGenerator struct {
	prof      Profile
	rng       *rand.Rand
	blocks    []refBlock
	cur       int // current refBlock index
	pos       int // position within current refBlock
	recentInt []uint16
	recentFP  []uint16
	riPos     int
	rfPos     int
	coldPtr   uint64
	remaining int64
	produced  int64
	genCount  int64
	genMem    int64
}

func newRefGenerator(p Profile, n int64) (*refGenerator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := &refGenerator{
		prof:      p,
		rng:       rng,
		recentInt: make([]uint16, 16),
		recentFP:  make([]uint16, 16),
		remaining: n,
	}
	for i := range g.recentInt {
		g.recentInt[i] = uint16(_intRegBase + i%_intRegCount)
	}
	for i := range g.recentFP {
		g.recentFP[i] = uint16(_fpRegBase + i%_fpRegCount)
	}
	g.buildCFG()
	return g, nil
}

// buildCFG lays out the static basic blocks. Block lengths are sampled
// around 1/branchFraction so the dynamic branch fraction matches the mix.
func (g *refGenerator) buildCFG() {
	p := g.prof
	meanLen := 1 / p.Mix.Branch
	g.blocks = make([]refBlock, p.CodeBlocks)
	pc := uint64(0x1000)
	for i := range g.blocks {
		// Lengths vary ±50% around the mean, minimum 2 (one body
		// instruction plus the branch).
		l := int(meanLen * (0.5 + g.rng.Float64()))
		if l < 2 {
			l = 2
		}
		g.blocks[i].startPC = pc
		g.blocks[i].length = l
		pc += uint64(l) * 4
	}
	for i := range g.blocks {
		g.blocks[i].takenBias = g.sampleBias()
		g.blocks[i].target = g.sampleTarget(i)
	}
}

// sampleBias draws a static branch bias such that the expected best-case
// prediction accuracy E[max(b, 1-b)] equals the profile's predictability.
func (g *refGenerator) sampleBias() float64 {
	// With probability q the branch is strongly biased (accuracy ~0.98),
	// otherwise weakly biased (accuracy ~0.62). Solve q for the target.
	const strong, weak = 0.98, 0.62
	q := (g.prof.BranchPredictability - weak) / (strong - weak)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var acc float64
	if g.rng.Float64() < q {
		acc = strong
	} else {
		acc = weak
	}
	// Convert accuracy to a bias on either side of 0.5.
	if g.rng.Float64() < 0.5 {
		return acc // mostly taken
	}
	return 1 - acc // mostly not-taken
}

// sampleTarget picks the taken-branch destination for refBlock i: a loop-back
// to a nearby earlier refBlock with probability LoopProb, otherwise a forward
// jump to a random later refBlock.
func (g *refGenerator) sampleTarget(i int) int {
	n := len(g.blocks)
	if g.rng.Float64() < g.prof.LoopProb {
		back := 1 + g.rng.Intn(8)
		t := i - back
		if t < 0 {
			t = 0
		}
		return t
	}
	fwd := 1 + g.rng.Intn(8)
	return (i + fwd) % n
}

// Next produces the next instruction of the stream.
func (g *refGenerator) Next() (trace.Instruction, error) {
	if g.remaining == 0 {
		return trace.Instruction{}, io.EOF
	}
	b := &g.blocks[g.cur]
	pc := b.startPC + uint64(g.pos)*4
	var in trace.Instruction
	if g.pos == b.length-1 {
		in = g.makeBranch(pc, b)
		// Advance control flow.
		if in.Taken {
			g.cur = b.target
		} else {
			g.cur = (g.cur + 1) % len(g.blocks)
		}
		g.pos = 0
	} else {
		in = g.makeBody(pc)
		g.pos++
	}
	if g.remaining > 0 {
		g.remaining--
	}
	g.produced++
	g.genCount++
	if in.Class == trace.ClassLoad || in.Class == trace.ClassStore {
		g.genMem++
	}
	return in, nil
}

// Produced returns the number of instructions generated so far.
func (g *refGenerator) Produced() int64 { return g.produced }

func (g *refGenerator) Skip(n int64) (int64, error) {
	if n <= 0 {
		return 0, nil
	}
	if g.remaining == 0 {
		return 0, io.EOF
	}
	if g.remaining > 0 && n > g.remaining {
		n = g.remaining
	}
	g.produced += n
	if g.remaining > 0 {
		g.remaining -= n
	}
	// Advance the cold-stream pointer as if the skipped instructions had
	// issued their expected share of cold accesses (one line each).
	coldAccesses := float64(n) * (g.prof.Mix.Load + g.prof.Mix.Store) * g.prof.ColdProb
	g.coldPtr += 64 * uint64(coldAccesses)
	return n, nil
}

func (g *refGenerator) SkipWarm(n int64, w trace.MemWarmer) (int64, error) {
	if w == nil {
		return g.Skip(n)
	}
	if n <= 0 {
		return 0, nil
	}
	if g.remaining == 0 {
		return 0, io.EOF
	}
	if g.remaining > 0 && n > g.remaining {
		n = g.remaining
	}
	memProb := g.prof.Mix.Load + g.prof.Mix.Store
	if g.genCount >= 4096 {
		memProb = float64(g.genMem) / float64(g.genCount)
	}
	var storeProb float64
	if m := g.prof.Mix.Load + g.prof.Mix.Store; m > 0 {
		storeProb = g.prof.Mix.Store / m
	}
	const unit = 1 << 53
	memThresh := uint64(memProb * unit)
	storeThresh := uint64(storeProb * (1 << 11))
	mkThresh := func(scale float64) (cold, warm uint64) {
		c := g.prof.ColdProb * scale
		return uint64(c * unit), uint64((c + g.prof.WarmProb*scale) * unit)
	}
	coldEven, warmEven := mkThresh(g.phaseScaleAt(0))
	coldOdd, warmOdd := coldEven, warmEven
	if g.prof.PhaseInstrs > 0 {
		coldOdd, warmOdd = mkThresh(g.prof.PhaseMemScale)
	}
	const golden = 0x9e3779b97f4a7c15
	x := uint64(g.prof.Seed) + uint64(g.produced)*golden
	for i := int64(0); i < n; i++ {
		h := splitmix64(x)
		x += golden
		if h>>11 >= memThresh {
			continue
		}
		coldT, warmT := coldEven, warmEven
		if g.prof.PhaseInstrs > 0 && ((g.produced+i)/g.prof.PhaseInstrs)&1 == 1 {
			coldT, warmT = coldOdd, warmOdd
		}
		store := h&(1<<11-1) < storeThresh
		h2 := splitmix64(h)
		var addr uint64
		switch r := h2 >> 11; {
		case r < coldT:
			g.coldPtr += 64
			addr = coldBase + g.coldPtr&(1<<30-1)
		case r < warmT:
			hi, _ := bits.Mul64(splitmix64(h2), g.prof.WarmBytes)
			addr = warmBase + hi&^7
		default:
			hi, _ := bits.Mul64(splitmix64(h2), g.prof.HotBytes)
			addr = hotBase + hi&^7
		}
		w.WarmAccess(addr, store)
	}
	g.produced += n
	if g.remaining > 0 {
		g.remaining -= n
	}
	return n, nil
}

func (g *refGenerator) makeBranch(pc uint64, b *refBlock) trace.Instruction {
	in := trace.Instruction{
		PC:    pc,
		Class: trace.ClassBranch,
		Src1:  g.pickSource(false),
		Taken: g.rng.Float64() < b.takenBias,
	}
	if in.Taken {
		in.Target = g.blocks[b.target].startPC
	}
	return in
}

// makeBody samples a non-branch instruction from the mix.
func (g *refGenerator) makeBody(pc uint64) trace.Instruction {
	m := g.prof.Mix
	nonBranch := m.Sum() - m.Branch
	x := g.rng.Float64() * nonBranch
	switch {
	case x < m.IntALU:
		return g.makeALU(pc, trace.ClassIntALU)
	case x < m.IntALU+m.IntMul:
		return g.makeALU(pc, trace.ClassIntMul)
	case x < m.IntALU+m.IntMul+m.IntDiv:
		return g.makeALU(pc, trace.ClassIntDiv)
	case x < m.IntALU+m.IntMul+m.IntDiv+m.FPOp:
		return g.makeFP(pc, trace.ClassFPOp)
	case x < m.IntALU+m.IntMul+m.IntDiv+m.FPOp+m.FPDiv:
		return g.makeFP(pc, trace.ClassFPDiv)
	case x < m.IntALU+m.IntMul+m.IntDiv+m.FPOp+m.FPDiv+m.Load:
		return g.makeLoad(pc)
	case x < m.IntALU+m.IntMul+m.IntDiv+m.FPOp+m.FPDiv+m.Load+m.Store:
		return g.makeStore(pc)
	default:
		return g.makeLCR(pc)
	}
}

func (g *refGenerator) makeALU(pc uint64, c trace.Class) trace.Instruction {
	in := trace.Instruction{
		PC:    pc,
		Class: c,
		Src1:  g.pickSource(false),
		Src2:  g.pickSource(false),
		Dest:  g.newDest(false),
	}
	return in
}

func (g *refGenerator) makeFP(pc uint64, c trace.Class) trace.Instruction {
	return trace.Instruction{
		PC:    pc,
		Class: c,
		Src1:  g.pickSource(true),
		Src2:  g.pickSource(true),
		Dest:  g.newDest(true),
	}
}

func (g *refGenerator) makeLoad(pc uint64) trace.Instruction {
	fp := g.prof.Suite == SuiteFP && g.rng.Float64() < 0.7
	return trace.Instruction{
		PC:    pc,
		Class: trace.ClassLoad,
		Addr:  g.dataAddress(),
		Src1:  g.pickSource(false), // address base register
		Dest:  g.newDest(fp),
	}
}

func (g *refGenerator) makeStore(pc uint64) trace.Instruction {
	fp := g.prof.Suite == SuiteFP && g.rng.Float64() < 0.7
	return trace.Instruction{
		PC:    pc,
		Class: trace.ClassStore,
		Addr:  g.dataAddress(),
		Src1:  g.pickSource(false), // address base register
		Src2:  g.pickSource(fp),    // stored value
	}
}

func (g *refGenerator) makeLCR(pc uint64) trace.Instruction {
	return trace.Instruction{
		PC:    pc,
		Class: trace.ClassLCR,
		Src1:  g.pickSource(false),
		Dest:  g.newDest(false),
	}
}

// phaseScale returns the current multiplier on the warm/cold access
// probabilities: >1 in the memory phase, <1 in the compute phase, 1 with
// phases disabled.
func (g *refGenerator) phaseScale() float64 { return g.phaseScaleAt(g.produced) }

// phaseScaleAt evaluates the phase schedule at absolute trace position p.
func (g *refGenerator) phaseScaleAt(p int64) float64 {
	if g.prof.PhaseInstrs <= 0 {
		return 1
	}
	if (p/g.prof.PhaseInstrs)%2 == 1 {
		return g.prof.PhaseMemScale
	}
	return 1 / g.prof.PhaseMemScale
}

// dataAddress draws an effective address from the three-level locality
// model: hot (L1-resident), warm (L2-resident), or cold (streaming past
// the L2). Regions are disjoint so cache behaviour is controllable.
func (g *refGenerator) dataAddress() uint64 {
	scale := g.phaseScale()
	warmProb := g.prof.WarmProb * scale
	coldProb := g.prof.ColdProb * scale
	x := g.rng.Float64()
	switch {
	case x < coldProb:
		// Stream through a region far larger than the L2 in cache-line
		// steps so every access is a fresh line.
		g.coldPtr += 64
		return coldBase + g.coldPtr%(1<<30)
	case x < coldProb+warmProb:
		off := uint64(g.rng.Int63n(int64(g.prof.WarmBytes))) &^ 7
		return warmBase + off
	default:
		off := uint64(g.rng.Int63n(int64(g.prof.HotBytes))) &^ 7
		return hotBase + off
	}
}

// pickSource chooses a source register: near (recently written, likely
// in flight) with probability NearDepProb, else a stable old value.
func (g *refGenerator) pickSource(fp bool) uint16 {
	recent, pos := g.recentInt, g.riPos
	base, count := uint16(_intRegBase), _intRegCount
	if fp {
		recent, pos = g.recentFP, g.rfPos
		base, count = uint16(_fpRegBase), _fpRegCount
	}
	if g.rng.Float64() < g.prof.NearDepProb {
		// Geometric distance with the profile's mean, capped by the
		// recent-ring size.
		d := 1
		for float64(d) < float64(len(recent)) && g.rng.Float64() > 1/g.prof.DepDist {
			d++
		}
		idx := (pos - d + 2*len(recent)) % len(recent)
		return recent[idx]
	}
	return base + uint16(g.rng.Intn(count))
}

// newDest allocates the next destination register round-robin and records
// it in the recent ring used for dependency construction.
func (g *refGenerator) newDest(fp bool) uint16 {
	if fp {
		reg := uint16(_fpRegBase + int(g.rfPos)%_fpRegCount)
		g.recentFP[g.rfPos%len(g.recentFP)] = reg
		g.rfPos++
		return reg
	}
	reg := uint16(_intRegBase + int(g.riPos)%_intRegCount)
	g.recentInt[g.riPos%len(g.recentInt)] = reg
	g.riPos++
	return reg
}
