// Package workload generates synthetic instruction traces that stand in for
// the PowerPC SPEC2K traces used by the paper (§4.5). The original traces
// are proprietary IBM artifacts; each benchmark here is replaced by a
// parameterised generator whose instruction mix, instruction-level
// parallelism, memory-locality structure, code footprint, and branch
// predictability are tuned so that the simulated IPC and power on the
// 180nm base machine track Table 3 of the paper.
//
// The generators are deterministic: the same profile and seed always yield
// the same trace, which keeps experiments and tests reproducible.
package workload

import (
	"fmt"
	"io"
	"math"
	"math/bits"

	"github.com/ramp-sim/ramp/internal/trace"
)

// Suite labels a benchmark as integer or floating-point SPEC2K.
type Suite uint8

// Benchmark suites.
const (
	SuiteInt Suite = iota + 1
	SuiteFP
)

// String returns the paper's name for the suite.
func (s Suite) String() string {
	switch s {
	case SuiteInt:
		return "SpecInt"
	case SuiteFP:
		return "SpecFP"
	default:
		return fmt.Sprintf("suite(%d)", uint8(s))
	}
}

// Mix gives the fraction of dynamic instructions in each class. Fractions
// must be non-negative and sum to 1 (within rounding).
type Mix struct {
	IntALU float64
	IntMul float64
	IntDiv float64
	FPOp   float64
	FPDiv  float64
	Load   float64
	Store  float64
	Branch float64
	LCR    float64
}

// Sum returns the total of all fractions.
func (m Mix) Sum() float64 {
	return m.IntALU + m.IntMul + m.IntDiv + m.FPOp + m.FPDiv +
		m.Load + m.Store + m.Branch + m.LCR
}

// Validate checks that the mix is a proper distribution with a non-zero
// branch fraction (the control-flow skeleton requires branches).
func (m Mix) Validate() error {
	fracs := []float64{
		m.IntALU, m.IntMul, m.IntDiv, m.FPOp, m.FPDiv,
		m.Load, m.Store, m.Branch, m.LCR,
	}
	for _, f := range fracs {
		// The explicit non-finite check matters: NaN compares false against
		// every bound below and would otherwise slip through.
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("workload: non-finite mix fraction %v", f)
		}
		if f < 0 {
			return fmt.Errorf("workload: negative mix fraction %v", f)
		}
	}
	if s := m.Sum(); s < 0.999 || s > 1.001 {
		return fmt.Errorf("workload: mix sums to %v, want 1", s)
	}
	if m.Branch <= 0 {
		return fmt.Errorf("workload: branch fraction must be positive")
	}
	return nil
}

// Profile parameterises one synthetic benchmark.
type Profile struct {
	// Name is the SPEC2K benchmark this profile emulates.
	Name string
	// Suite is SpecInt or SpecFP.
	Suite Suite
	// Mix is the dynamic instruction-class distribution.
	Mix Mix
	// DepDist is the mean register-dependency distance in instructions;
	// smaller values create longer dependence chains and lower ILP.
	DepDist float64
	// NearDepProb is the probability that a source operand depends on a
	// recently produced value (versus a long-dead, always-ready value).
	NearDepProb float64
	// HotBytes, WarmBytes are the sizes of the L1-resident and L2-resident
	// data working sets. Cold accesses stream beyond the L2.
	HotBytes, WarmBytes uint64
	// WarmProb and ColdProb are the probabilities that a memory access
	// falls in the warm (L2) and cold (memory) regions; the remainder hits
	// the hot set. They control the L1/L2 miss rates.
	WarmProb, ColdProb float64
	// CodeBlocks is the number of static basic blocks; together with the
	// branch fraction it sets the instruction footprint seen by the L1 I-cache.
	CodeBlocks int
	// BranchPredictability in [0.5, 1] is the asymptotic accuracy a good
	// dynamic predictor can reach on this benchmark: static branch biases
	// are drawn so that the mean max(p, 1-p) equals this value.
	BranchPredictability float64
	// LoopProb is the probability that a taken branch targets an earlier
	// block (loop-back) rather than a forward block.
	LoopProb float64
	// TargetIPC and TargetPowerW record the paper's Table 3 operating
	// point for the 180nm base machine (for calibration reporting only).
	TargetIPC    float64
	TargetPowerW float64
	// PhaseInstrs, when positive, alternates the generator between a
	// compute-biased and a memory-biased program phase every PhaseInstrs
	// instructions, reproducing the coarse temporal behaviour variation of
	// real programs ("small [thermal] cycles which occur at a much higher
	// frequency, due to variations in application behavior", §2). Zero
	// disables phases; the calibrated Table 3 profiles ship with phases
	// off so their operating points stay pinned.
	PhaseInstrs int64
	// PhaseMemScale (> 1) multiplies the warm/cold access probabilities
	// during the memory phase; the compute phase divides by it, keeping
	// the whole-trace average behaviour near the base profile.
	PhaseMemScale float64
	// Seed makes the generated trace deterministic per benchmark.
	Seed int64
}

// Validate checks profile parameters for consistency.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile needs a name")
	}
	if p.Suite != SuiteInt && p.Suite != SuiteFP {
		return fmt.Errorf("workload: profile %q: invalid suite", p.Name)
	}
	if err := p.Mix.Validate(); err != nil {
		return fmt.Errorf("workload: profile %q: %w", p.Name, err)
	}
	// NaN parameters compare false against every range bound, so every
	// bracketed field is checked with the accepting comparison inverted:
	// !(lo <= v && v <= hi) rejects NaN along with out-of-range values.
	if !(p.DepDist >= 1) || math.IsInf(p.DepDist, 0) {
		return fmt.Errorf("workload: profile %q: DepDist %v not a finite value >= 1", p.Name, p.DepDist)
	}
	if !(p.NearDepProb >= 0 && p.NearDepProb <= 1) {
		return fmt.Errorf("workload: profile %q: NearDepProb out of [0,1]", p.Name)
	}
	if !(p.WarmProb >= 0 && p.ColdProb >= 0 && p.WarmProb+p.ColdProb <= 1) {
		return fmt.Errorf("workload: profile %q: invalid warm/cold probabilities", p.Name)
	}
	// Working-set sizes feed Int63n (rng.go), which panics on non-positive
	// arguments: sizes above MaxInt64 would wrap negative.
	if p.HotBytes == 0 || p.WarmBytes == 0 {
		return fmt.Errorf("workload: profile %q: working-set sizes must be positive", p.Name)
	}
	if p.HotBytes > math.MaxInt64 || p.WarmBytes > math.MaxInt64 {
		return fmt.Errorf("workload: profile %q: working-set sizes exceed 2^63-1 bytes", p.Name)
	}
	if p.CodeBlocks < 2 {
		return fmt.Errorf("workload: profile %q: need at least 2 code blocks", p.Name)
	}
	// The CFG is materialised per block; cap the footprint so a corrupt
	// profile cannot demand an unbounded allocation.
	if p.CodeBlocks > 1<<22 {
		return fmt.Errorf("workload: profile %q: %d code blocks exceeds the 2^22 cap", p.Name, p.CodeBlocks)
	}
	if !(p.BranchPredictability >= 0.5 && p.BranchPredictability <= 1) {
		return fmt.Errorf("workload: profile %q: predictability out of [0.5,1]", p.Name)
	}
	if !(p.LoopProb >= 0 && p.LoopProb <= 1) {
		return fmt.Errorf("workload: profile %q: LoopProb out of [0,1]", p.Name)
	}
	if p.PhaseInstrs < 0 {
		return fmt.Errorf("workload: profile %q: negative PhaseInstrs", p.Name)
	}
	if p.PhaseInstrs > 0 {
		if !(p.PhaseMemScale > 1) || math.IsInf(p.PhaseMemScale, 0) {
			return fmt.Errorf("workload: profile %q: PhaseMemScale must be a finite value above 1 with phases on", p.Name)
		}
		if (p.WarmProb+p.ColdProb)*p.PhaseMemScale > 1 {
			return fmt.Errorf("workload: profile %q: memory-phase probabilities exceed 1", p.Name)
		}
	}
	return nil
}

// Register name-space layout within trace.NumArchRegs: integer registers
// and FP registers occupy disjoint ranges, mimicking a RISC ISA.
const (
	_intRegBase  = 1
	_intRegCount = 32
	_fpRegBase   = 128
	_fpRegCount  = 32
)

// block is one static basic block of the synthetic control-flow graph.
type block struct {
	startPC  uint64
	length   int    // instructions including the terminating branch
	takenCut int64  // the terminating branch is taken on draws below this cut
	target   int    // block index jumped to when taken
	targetPC uint64 // start PC of the target block
}

// Generator produces the synthetic instruction stream for a profile. It
// implements trace.BatchStream. Create with New; the zero value is not
// usable.
//
// Every Float64() < p test of the generation path is an integer compare of
// the draw behind Float64 with a cut New computes once (see below), so a
// generated instruction costs a handful of draws and compares.
type Generator struct {
	prof      Profile
	rng       rng
	blocks    []block
	cur       int // current block index
	pos       int // position within current block
	recentInt [16]uint16
	recentFP  [16]uint16
	riPos     int
	rfPos     int
	coldPtr   uint64
	remaining int64
	produced  int64
	// Cuts on unit draws: a near source dependency, continuing the
	// dependency-distance walk (a draw at or above depCut), an FP load or
	// store value, each cumulative class of the mix, and the cold and
	// cold-or-warm regions in each phase parity.
	nearCut, depCut, fpCut int64
	classCut               [7]int64
	regionCut              [2][2]int64
	warm, hot              bound // working-set sizes as Int63n bounds
	// genCount/genMem tally instructions actually generated (not skipped)
	// and how many were loads or stores, giving SkipWarm the stream's
	// dynamic memory-access rate. The static Mix underestimates the branch
	// fraction — block lengths vary around 1/Mix.Branch and the dynamic
	// rate is the frequency-weighted mean of 1/length — so the dynamic
	// memory rate runs a few percent below Mix.Load+Mix.Store on
	// branch-heavy profiles.
	genCount int64
	genMem   int64
}

var (
	_ trace.BatchStream = (*Generator)(nil)
	_ trace.Skipper     = (*Generator)(nil)
	_ trace.WarmSkipper = (*Generator)(nil)
)

// New builds a deterministic generator for profile p producing n
// instructions (n <= 0 means unbounded).
func New(p Profile, n int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		prof:      p,
		remaining: n,
		warm:      newBound(int64(p.WarmBytes)),
		hot:       newBound(int64(p.HotBytes)),
	}
	g.rng.seed(p.Seed)
	for i := range g.recentInt {
		g.recentInt[i] = uint16(_intRegBase + i%_intRegCount)
	}
	for i := range g.recentFP {
		g.recentFP[i] = uint16(_fpRegBase + i%_fpRegCount)
	}
	g.buildCFG()
	g.cutDraws()
	return g, nil
}

// cutDraws computes the generation path's cuts. Each is built from the
// exact floating-point expression the test on Float64() would evaluate,
// so the integer compare agrees with it on every draw.
func (g *Generator) cutDraws() {
	p := g.prof
	g.nearCut = below(func(x float64) bool { return x < p.NearDepProb })
	depStop := 1 / p.DepDist
	g.depCut = below(func(x float64) bool { return !(x > depStop) })
	if p.Suite == SuiteFP {
		g.fpCut = below(func(x float64) bool { return x < 0.7 })
	}
	m := p.Mix
	nonBranch := m.Sum() - m.Branch
	sum := 0.0
	for i, f := range [len(g.classCut)]float64{m.IntALU, m.IntMul, m.IntDiv, m.FPOp, m.FPDiv, m.Load, m.Store} {
		sum += f
		cum := sum
		g.classCut[i] = below(func(x float64) bool { return x*nonBranch < cum })
	}
	for parity := range g.regionCut {
		scale := g.phaseScaleAt(int64(parity) * p.PhaseInstrs)
		warmProb := float64(p.WarmProb * scale)
		coldProb := float64(p.ColdProb * scale)
		g.regionCut[parity] = [2]int64{
			below(func(x float64) bool { return x < coldProb }),
			below(func(x float64) bool { return x < coldProb+warmProb }),
		}
	}
}

// buildCFG lays out the static basic blocks. Block lengths are sampled
// around 1/branchFraction so the dynamic branch fraction matches the mix.
func (g *Generator) buildCFG() {
	p := g.prof
	meanLen := 1 / p.Mix.Branch
	g.blocks = make([]block, p.CodeBlocks)
	pc := uint64(0x1000)
	for i := range g.blocks {
		// Lengths vary ±50% around the mean, minimum 2 (one body
		// instruction plus the branch).
		l := int(meanLen * (0.5 + g.rng.float64()))
		if l < 2 {
			l = 2
		}
		g.blocks[i].startPC = pc
		g.blocks[i].length = l
		pc += uint64(l) * 4
	}
	// Biases take four values, so their cuts are computed once each.
	cuts := map[float64]int64{}
	for i := range g.blocks {
		b := &g.blocks[i]
		bias := g.sampleBias()
		cut, ok := cuts[bias]
		if !ok {
			cut = below(func(x float64) bool { return x < bias })
			cuts[bias] = cut
		}
		b.takenCut = cut
		b.target = g.sampleTarget(i)
		b.targetPC = g.blocks[b.target].startPC
	}
}

// sampleBias draws a static branch bias such that the expected best-case
// prediction accuracy E[max(b, 1-b)] equals the profile's predictability.
func (g *Generator) sampleBias() float64 {
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
	if g.rng.float64() < q {
		acc = strong
	} else {
		acc = weak
	}
	// Convert accuracy to a bias on either side of 0.5.
	if g.rng.float64() < 0.5 {
		return acc // mostly taken
	}
	return 1 - acc // mostly not-taken
}

// sampleTarget picks the taken-branch destination for block i: a loop-back
// to a nearby earlier block with probability LoopProb, otherwise a forward
// jump to a random later block.
func (g *Generator) sampleTarget(i int) int {
	n := len(g.blocks)
	if g.rng.float64() < g.prof.LoopProb {
		back := 1 + g.rng.intn(8)
		t := i - back
		if t < 0 {
			t = 0
		}
		return t
	}
	fwd := 1 + g.rng.intn(8)
	return (i + fwd) % n
}

// Next produces the next instruction of the stream: NextBatch for a batch
// of one, with the batch bookkeeping written out for a single instruction.
func (g *Generator) Next() (in trace.Instruction, err error) {
	if g.remaining == 0 {
		return in, io.EOF
	}
	g.next(&in)
	if g.remaining > 0 {
		g.remaining--
	}
	g.genCount++
	return in, nil
}

// NextBatch fills buf with the next instructions of the stream,
// implementing trace.BatchStream.
func (g *Generator) NextBatch(buf []trace.Instruction) (int, error) {
	n := len(buf)
	if g.remaining >= 0 && int64(n) > g.remaining {
		n = int(g.remaining)
	}
	for i := range buf[:n] {
		g.next(&buf[i])
	}
	if g.remaining > 0 {
		g.remaining -= int64(n)
	}
	g.genCount += int64(n)
	if n < len(buf) {
		return n, io.EOF
	}
	return n, nil
}

// next generates one instruction into in and advances the control-flow
// walk. Instructions are built in place: returning them by value through
// the make functions cost as much as generating them.
func (g *Generator) next(in *trace.Instruction) {
	b := &g.blocks[g.cur]
	pc := b.startPC + uint64(g.pos)*4
	if g.pos == b.length-1 {
		g.makeBranch(in, pc, b)
		g.pos = 0
		if in.Taken {
			g.cur = b.target
		} else if g.cur++; g.cur == len(g.blocks) {
			g.cur = 0
		}
	} else {
		g.makeBody(in, pc)
		g.pos++
	}
	g.produced++
	if in.Class.IsMem() {
		g.genMem++
	}
}

// Produced returns the number of instructions generated so far.
func (g *Generator) Produced() int64 { return g.produced }

// Skip discards up to n upcoming instructions in O(1), implementing
// trace.Skipper for systematic sampling. The generator advances its
// position counters — the phase schedule (phaseScaleAt) and the cold-stream
// pointer are driven by absolute trace position, so memory/compute phases
// stay aligned across skips — while the control-flow walk, dependency
// rings, and RNG carry over unchanged: the next window continues the walk
// where the previous one stopped. Restarting the walk at a skip-derived
// random block was tried first and rejected — it destroys the reuse
// structure the I-cache and branch predictor have learned, biasing the
// sampled IPC far below a contiguous run's. No random draws happen during
// a skip, so the post-skip state depends only on the windows actually
// generated, never on how the skip was chunked — sampled runs stay
// bit-reproducible.
func (g *Generator) Skip(n int64) (int64, error) {
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
	coldAccesses := float64(float64(n) * (g.prof.Mix.Load + g.prof.Mix.Store) * g.prof.ColdProb)
	g.coldPtr += 64 * uint64(coldAccesses)
	return n, nil
}

// SkipWarm discards up to n upcoming instructions like Skip, but replays
// the span's expected memory traffic into w, implementing
// trace.WarmSkipper. Skip keeps cache contents frozen across the gap;
// over long skips that freezes an evolution — the cold stream churning
// the L2, the warm set refreshing its recency — that in a contiguous run
// takes on the order of a million instructions to reach steady state, so
// every window behind the gap observes biased miss rates. SkipWarm drives
// that evolution statistically: each skipped position draws "was this a
// memory access, which region, load or store" from a splitmix64 hash of
// (seed, absolute position) — not from g.rng — and feeds the resulting
// address to w. Position-keyed draws make the replay a pure function of
// which positions were skipped, so chunked and whole-gap skips leave
// bit-identical generator and cache state, preserving Skip's
// reproducibility guarantee. The cold-stream pointer advances per
// replayed cold access (superseding Skip's bulk estimate) so the warmed
// lines and the pointer agree.
func (g *Generator) SkipWarm(n int64, w trace.MemWarmer) (int64, error) {
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
	// Replay at the stream's measured dynamic memory-access rate once
	// enough instructions have been observed; the static Mix rate seeds the
	// estimate before that. Within one gap no instructions are generated
	// between chunks, so the rate — like the position-keyed draws — is
	// identical however the gap is chunked.
	memProb := g.prof.Mix.Load + g.prof.Mix.Store
	if g.genCount >= 4096 {
		memProb = float64(g.genMem) / float64(g.genCount)
	}
	var storeProb float64
	if m := g.prof.Mix.Load + g.prof.Mix.Store; m > 0 {
		storeProb = g.prof.Mix.Store / m
	}
	// The replay runs for every skipped instruction, so the draws are
	// integer threshold compares on hash bits rather than float64
	// conversions, and region offsets use a multiply-high (Lemire)
	// reduction rather than a 64-bit modulo. Thresholds for the two phase
	// parities are precomputed; built-in profiles have phases off.
	const unit = 1 << 53
	memThresh := uint64(float64(memProb * unit))
	storeThresh := uint64(float64(storeProb * (1 << 11)))
	mkThresh := func(scale float64) (cold, warm uint64) {
		c := float64(g.prof.ColdProb * scale)
		return uint64(float64(c * unit)), uint64(float64((c + float64(g.prof.WarmProb*scale)) * unit))
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

// splitmix64 is the SplitMix64 finaliser: a bijective mixer cheap enough
// to derive several independent draws per skipped instruction.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *Generator) makeBranch(in *trace.Instruction, pc uint64, b *block) {
	*in = trace.Instruction{
		PC:    pc,
		Class: trace.ClassBranch,
		Src1:  g.pickSource(false),
		Taken: g.rng.unit() < b.takenCut,
	}
	if in.Taken {
		in.Target = b.targetPC
	}
}

// makeBody samples a non-branch instruction from the mix.
func (g *Generator) makeBody(in *trace.Instruction, pc uint64) {
	v, c := g.rng.unit(), &g.classCut
	switch {
	case v < c[0]:
		g.makeALU(in, pc, trace.ClassIntALU)
	case v < c[1]:
		g.makeALU(in, pc, trace.ClassIntMul)
	case v < c[2]:
		g.makeALU(in, pc, trace.ClassIntDiv)
	case v < c[3]:
		g.makeFP(in, pc, trace.ClassFPOp)
	case v < c[4]:
		g.makeFP(in, pc, trace.ClassFPDiv)
	case v < c[5]:
		g.makeLoad(in, pc)
	case v < c[6]:
		g.makeStore(in, pc)
	default:
		g.makeLCR(in, pc)
	}
}

func (g *Generator) makeALU(in *trace.Instruction, pc uint64, c trace.Class) {
	*in = trace.Instruction{
		PC:    pc,
		Class: c,
		Src1:  g.pickSource(false),
		Src2:  g.pickSource(false),
		Dest:  g.newDest(false),
	}
}

func (g *Generator) makeFP(in *trace.Instruction, pc uint64, c trace.Class) {
	*in = trace.Instruction{
		PC:    pc,
		Class: c,
		Src1:  g.pickSource(true),
		Src2:  g.pickSource(true),
		Dest:  g.newDest(true),
	}
}

func (g *Generator) makeLoad(in *trace.Instruction, pc uint64) {
	fp := g.prof.Suite == SuiteFP && g.rng.unit() < g.fpCut
	*in = trace.Instruction{
		PC:    pc,
		Class: trace.ClassLoad,
		Addr:  g.dataAddress(),
		Src1:  g.pickSource(false), // address base register
		Dest:  g.newDest(fp),
	}
}

func (g *Generator) makeStore(in *trace.Instruction, pc uint64) {
	fp := g.prof.Suite == SuiteFP && g.rng.unit() < g.fpCut
	*in = trace.Instruction{
		PC:    pc,
		Class: trace.ClassStore,
		Addr:  g.dataAddress(),
		Src1:  g.pickSource(false), // address base register
		Src2:  g.pickSource(fp),    // stored value
	}
}

func (g *Generator) makeLCR(in *trace.Instruction, pc uint64) {
	*in = trace.Instruction{
		PC:    pc,
		Class: trace.ClassLCR,
		Src1:  g.pickSource(false),
		Dest:  g.newDest(false),
	}
}

// phaseScaleAt evaluates the phase schedule at absolute trace position p:
// the multiplier on the warm/cold access probabilities, >1 in the memory
// phase, <1 in the compute phase, 1 with phases disabled.
func (g *Generator) phaseScaleAt(p int64) float64 {
	if g.prof.PhaseInstrs <= 0 {
		return 1
	}
	if (p/g.prof.PhaseInstrs)%2 == 1 {
		return g.prof.PhaseMemScale
	}
	return 1 / g.prof.PhaseMemScale
}

// Disjoint base addresses of the three-level data-locality model, shared
// by demand generation (dataAddress) and skip-span warming (SkipWarm).
const (
	hotBase  = 0x1000_0000
	warmBase = 0x2000_0000
	coldBase = 0x4000_0000
)

// dataAddress draws an effective address from the three-level locality
// model: hot (L1-resident), warm (L2-resident), or cold (streaming past
// the L2). Regions are disjoint so cache behaviour is controllable.
func (g *Generator) dataAddress() uint64 {
	parity := 0
	if g.prof.PhaseInstrs > 0 {
		parity = int(g.produced/g.prof.PhaseInstrs) & 1
	}
	v, c := g.rng.unit(), &g.regionCut[parity]
	switch {
	case v < c[0]:
		// Stream through a region far larger than the L2 in cache-line
		// steps so every access is a fresh line.
		g.coldPtr += 64
		return coldBase + g.coldPtr%(1<<30)
	case v < c[1]:
		return warmBase + uint64(g.rng.int63n(g.warm))&^7
	default:
		return hotBase + uint64(g.rng.int63n(g.hot))&^7
	}
}

// pickSource chooses a source register: near (recently written, likely
// in flight) with probability NearDepProb, else a stable old value.
func (g *Generator) pickSource(fp bool) uint16 {
	recent, pos := &g.recentInt, g.riPos
	base, count := uint16(_intRegBase), int32(_intRegCount)
	if fp {
		recent, pos = &g.recentFP, g.rfPos
		base, count = uint16(_fpRegBase), _fpRegCount
	}
	if g.rng.unit() < g.nearCut {
		// Geometric distance with the profile's mean, capped by the
		// recent-ring size.
		d := 1
		for d < len(recent) && g.rng.unit() >= g.depCut {
			d++
		}
		return recent[(pos-d)&(len(recent)-1)]
	}
	// Intn(count): the register counts are powers of two, so Intn masks
	// an Int31 draw.
	return base + uint16(int32(g.rng.int63()>>32)&(count-1))
}

// newDest allocates the next destination register round-robin and records
// it in the recent ring used for dependency construction.
func (g *Generator) newDest(fp bool) uint16 {
	if fp {
		reg := uint16(_fpRegBase + g.rfPos%_fpRegCount)
		g.recentFP[g.rfPos%len(g.recentFP)] = reg
		g.rfPos++
		return reg
	}
	reg := uint16(_intRegBase + g.riPos%_intRegCount)
	g.recentInt[g.riPos%len(g.recentInt)] = reg
	g.riPos++
	return reg
}
