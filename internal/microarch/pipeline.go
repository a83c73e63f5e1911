package microarch

import (
	"errors"
	"fmt"
	"io"

	"github.com/ramp-sim/ramp/internal/trace"
)

// bwRing is a bandwidth reservation table: it finds, for a requested start
// cycle, the earliest cycle with spare per-cycle capacity. Entries are
// lazily reset by stamping the cycle they describe, so the ring never needs
// clearing. The ring must be longer than the largest spread of in-flight
// reservation cycles (bounded by ROB size × worst-case latency).
type bwRing struct {
	counts []int32
	cycles []int64
	limit  int32
}

const _bwRingSize = 1 << 15

func newBWRing(limit int) bwRing {
	return bwRing{
		counts: make([]int32, _bwRingSize),
		cycles: make([]int64, _bwRingSize),
		limit:  int32(limit),
	}
}

// reserve books one slot at the earliest cycle ≥ t with spare capacity and
// returns that cycle.
func (b *bwRing) reserve(t int64) int64 {
	for {
		i := t & (_bwRingSize - 1)
		if b.cycles[i] != t {
			b.cycles[i] = t
			b.counts[i] = 0
		}
		if b.counts[i] < b.limit {
			b.counts[i]++
			return t
		}
		t++
	}
}

// unitPool models a set of interchangeable functional units. Pipelined
// operations occupy a unit for one cycle; non-pipelined operations (the
// divides) occupy it for their full latency.
type unitPool struct {
	free []int64
}

func newUnitPool(n int) unitPool {
	return unitPool{free: make([]int64, n)}
}

// acquire finds a unit for an operation that becomes ready at cycle t and
// occupies its unit for occ cycles. It returns the issue cycle. It prefers
// a unit already idle at t (avoiding false contention from program-order
// reservation); otherwise it waits for the earliest-free unit.
func (u *unitPool) acquire(t int64, occ int64) int64 {
	best := -1
	var bestFree int64
	for i, f := range u.free {
		if f <= t {
			// Idle at t: prefer the most recently used idle unit so other
			// units remain free for earlier-ready operations.
			if best == -1 || f > bestFree {
				best, bestFree = i, f
			}
		}
	}
	if best == -1 {
		// All busy at t: take the earliest-free unit.
		best, bestFree = 0, u.free[0]
		for i, f := range u.free {
			if f < bestFree {
				best, bestFree = i, f
			}
		}
		t = bestFree
	}
	u.free[best] = t + occ
	return t
}

// occupancyRing tracks the release times of the last N occupants of a
// structural resource (ROB entries, LSQ slots, physical registers). Slot i
// of the resource is reused by the (i+N)-th allocation, so the constraint
// for a new allocation is the stored release time of the entry it replaces.
type occupancyRing struct {
	release []int64
	pos     int
}

func newOccupancyRing(n int) occupancyRing {
	return occupancyRing{release: make([]int64, n)}
}

// constraint returns the earliest cycle the next allocation may proceed.
func (o *occupancyRing) constraint() int64 {
	return o.release[o.pos]
}

// allocate records the release time of the new occupant.
func (o *occupancyRing) allocate(releaseCycle int64) {
	o.release[o.pos] = releaseCycle
	o.pos++
	if o.pos == len(o.release) {
		o.pos = 0
	}
}

// Simulator executes an instruction trace on the modeled machine.
type Simulator struct {
	cfg  Config
	caps [NumStructures]float64

	l1i, l1d, l2 *Cache
	pred         *Predictor

	regReady [trace.NumArchRegs]int64

	fetchBW    bwRing
	dispatchBW bwRing
	issueBW    bwRing
	retireBW   bwRing

	intUnits, fpUnits, lsUnits, brUnits, lcrUnits unitPool

	rob     occupancyRing
	memq    occupancyRing
	intRegs occupancyRing
	fpRegs  occupancyRing

	fetchHead    int64
	lastDispatch int64
	lastRetire   int64
	lastLine     uint64

	cyclesPerUs int64
	samples     []ActivitySample
	totalEvents [NumStructures]float64

	retired     int64
	branches    int64
	mispredicts int64
}

// NewSimulator builds a simulator for the given machine configuration.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1i, err := NewCache(cfg.L1I)
	if err != nil {
		return nil, fmt.Errorf("microarch: L1I: %w", err)
	}
	l1d, err := NewCache(cfg.L1D)
	if err != nil {
		return nil, fmt.Errorf("microarch: L1D: %w", err)
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("microarch: L2: %w", err)
	}
	s := &Simulator{
		cfg:         cfg,
		caps:        cfg.capacity(),
		l1i:         l1i,
		l1d:         l1d,
		l2:          l2,
		pred:        NewPredictorKind(predictorKindOrDefault(cfg.PredictorKind), cfg.PredictorBits, cfg.BTBEntries),
		fetchBW:     newBWRing(cfg.FetchWidth),
		dispatchBW:  newBWRing(cfg.DispatchWidth),
		issueBW:     newBWRing(cfg.IssueWidth),
		retireBW:    newBWRing(cfg.RetireWidth),
		intUnits:    newUnitPool(cfg.IntUnits),
		fpUnits:     newUnitPool(cfg.FPUnits),
		lsUnits:     newUnitPool(cfg.LSUnits),
		brUnits:     newUnitPool(cfg.BranchUnits),
		lcrUnits:    newUnitPool(cfg.LCRUnits),
		rob:         newOccupancyRing(cfg.ROBSize),
		memq:        newOccupancyRing(cfg.MemQueueSize),
		intRegs:     newOccupancyRing(cfg.IntRegs - 32),
		fpRegs:      newOccupancyRing(cfg.FPRegs - 32),
		cyclesPerUs: cfg.CyclesPerMicrosecond(),
		lastLine:    ^uint64(0),
	}
	return s, nil
}

// runBatch is the number of instructions Run takes from the stream per
// call: enough to amortise the call, and at 10 KB small enough to stay in
// the L1 data cache.
const runBatch = 256

// Run consumes the stream to completion (or the first error) and returns
// the aggregated result. It takes instructions in batches (streams that do
// not implement trace.BatchStream are adapted); instructions delivered
// with an error are simulated before the error is returned.
func (s *Simulator) Run(stream trace.Stream) (Result, error) {
	src := trace.Batches(stream)
	buf := make([]trace.Instruction, runBatch)
	for {
		n, err := src.NextBatch(buf)
		for i := range buf[:n] {
			s.step(buf[i])
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return Result{}, fmt.Errorf("microarch: trace error after %d instructions: %w", s.retired, err)
		}
	}
	return s.result(), nil
}

// WarmAccess replays one sampled-out memory access through the data
// hierarchy, implementing trace.MemWarmer for systematic sampling. It
// mirrors the demand path's cache-content effects — L1D lookup, L2 on an
// L1D miss, the next-line prefetch loads trigger — without touching the
// demand statistics or consuming pipeline time, so the caches evolve as if
// the skipped span had executed while the activity samples keep describing
// only the instructions actually simulated.
func (s *Simulator) WarmAccess(addr uint64, store bool) {
	if s.l1d.Warm(addr) {
		return
	}
	s.l2.Warm(addr)
	if !store && s.cfg.NextLinePrefetch {
		next := addr + uint64(s.cfg.L1D.LineBytes)
		s.l1d.Prefetch(next)
		s.l2.Prefetch(next)
	}
}

// step advances the model by one instruction, computing its fetch,
// dispatch, issue, completion, and retirement cycles under all structural
// constraints, and accumulating activity events.
func (s *Simulator) step(in trace.Instruction) {
	cfg := &s.cfg

	// ---- Fetch: in-order, bandwidth-limited, I-cache latency on new lines.
	fetchT := s.fetchHead
	line := in.PC >> uint(log2(uint64(cfg.L1I.LineBytes)))
	if line != s.lastLine {
		s.lastLine = line
		if !s.l1i.Access(in.PC) {
			if s.l2.Access(in.PC) {
				fetchT += int64(cfg.L2Lat)
			} else {
				fetchT += int64(cfg.MemLat)
			}
		}
	}
	fetchT = s.fetchBW.reserve(fetchT)
	s.fetchHead = fetchT
	s.addEvent(StructIFU, fetchT, 1)

	// ---- Dispatch: in-order, group width, window/queue/register occupancy.
	dispT := fetchT + int64(cfg.FetchToDispatch)
	if dispT < s.lastDispatch {
		dispT = s.lastDispatch
	}
	if c := s.rob.constraint(); c+1 > dispT {
		dispT = c + 1
	}
	if in.Class.IsMem() {
		if c := s.memq.constraint(); c+1 > dispT {
			dispT = c + 1
		}
	}
	destFP := in.Dest != trace.RegNone && in.Dest >= 128
	destInt := in.Dest != trace.RegNone && in.Dest < 128
	if destInt {
		if c := s.intRegs.constraint(); c+1 > dispT {
			dispT = c + 1
		}
	}
	if destFP {
		if c := s.fpRegs.constraint(); c+1 > dispT {
			dispT = c + 1
		}
	}
	dispT = s.dispatchBW.reserve(dispT)
	s.lastDispatch = dispT
	s.addEvent(StructIDU, dispT, 1)

	// ---- Ready: all source operands produced.
	ready := dispT + 1
	if in.Src1 != trace.RegNone && s.regReady[in.Src1] > ready {
		ready = s.regReady[in.Src1]
	}
	if in.Src2 != trace.RegNone && s.regReady[in.Src2] > ready {
		ready = s.regReady[in.Src2]
	}

	// ---- Issue and execute.
	var issueT, completeT int64
	switch in.Class {
	case trace.ClassIntALU:
		issueT = s.intUnits.acquire(ready, 1)
		issueT = s.issueBW.reserve(issueT)
		completeT = issueT + int64(cfg.IntAddLat)
		s.addEvent(StructFXU, issueT, 1)
	case trace.ClassIntMul:
		issueT = s.intUnits.acquire(ready, 1)
		issueT = s.issueBW.reserve(issueT)
		completeT = issueT + int64(cfg.IntMulLat)
		s.addEvent(StructFXU, issueT, 2)
	case trace.ClassIntDiv:
		occ := int64(cfg.IntDivLat)
		issueT = s.intUnits.acquire(ready, occ)
		issueT = s.issueBW.reserve(issueT)
		completeT = issueT + occ
		s.addEvent(StructFXU, issueT, 4)
	case trace.ClassFPOp:
		issueT = s.fpUnits.acquire(ready, 1)
		issueT = s.issueBW.reserve(issueT)
		completeT = issueT + int64(cfg.FPLat)
		s.addEvent(StructFPU, issueT, 1)
	case trace.ClassFPDiv:
		occ := int64(cfg.FPDivLat)
		issueT = s.fpUnits.acquire(ready, occ)
		issueT = s.issueBW.reserve(issueT)
		completeT = issueT + occ
		s.addEvent(StructFPU, issueT, 3)
	case trace.ClassLoad:
		issueT = s.lsUnits.acquire(ready, 1)
		issueT = s.issueBW.reserve(issueT)
		lat := int64(cfg.L1Lat)
		if !s.l1d.Access(in.Addr) {
			if s.l2.Access(in.Addr) {
				lat = int64(cfg.L2Lat)
			} else {
				lat = int64(cfg.MemLat)
			}
			if cfg.NextLinePrefetch {
				next := in.Addr + uint64(cfg.L1D.LineBytes)
				s.l1d.Prefetch(next)
				s.l2.Prefetch(next)
			}
		}
		completeT = issueT + lat
		s.addEvent(StructLSU, issueT, 1)
	case trace.ClassStore:
		issueT = s.lsUnits.acquire(ready, 1)
		issueT = s.issueBW.reserve(issueT)
		// Stores complete into the store queue at L1 latency; the line is
		// allocated (write-allocate) for cache-content fidelity.
		if !s.l1d.Access(in.Addr) {
			s.l2.Access(in.Addr)
		}
		completeT = issueT + int64(cfg.L1Lat)
		s.addEvent(StructLSU, issueT, 1)
	case trace.ClassBranch:
		issueT = s.brUnits.acquire(ready, 1)
		issueT = s.issueBW.reserve(issueT)
		completeT = issueT + 1
		s.addEvent(StructBXU, issueT, 1)
		s.branches++
		if !s.pred.PredictAndUpdate(in.PC, in.Taken, in.Target) {
			s.mispredicts++
			// Redirect: younger instructions fetch after resolution.
			redirect := completeT + int64(cfg.MispredictPenalty)
			if redirect > s.fetchHead {
				s.fetchHead = redirect
			}
		}
	case trace.ClassLCR:
		issueT = s.lcrUnits.acquire(ready, 1)
		issueT = s.issueBW.reserve(issueT)
		completeT = issueT + 1
		s.addEvent(StructBXU, issueT, 1)
	default:
		// Unknown classes execute as single-cycle integer ops.
		issueT = s.intUnits.acquire(ready, 1)
		issueT = s.issueBW.reserve(issueT)
		completeT = issueT + 1
		s.addEvent(StructFXU, issueT, 1)
	}
	s.addEvent(StructISU, issueT, 1)

	if in.Dest != trace.RegNone {
		s.regReady[in.Dest] = completeT
	}

	// ---- Retire: in-order, group width.
	retT := completeT + 1
	if retT < s.lastRetire {
		retT = s.lastRetire
	}
	retT = s.retireBW.reserve(retT)
	s.lastRetire = retT
	s.retired++
	s.addRetired(retT)

	// ---- Release structural resources at retirement.
	s.rob.allocate(retT)
	if in.Class.IsMem() {
		s.memq.allocate(retT)
	}
	if destInt {
		s.intRegs.allocate(retT)
	}
	if destFP {
		s.fpRegs.allocate(retT)
	}
}

// addEvent accumulates weighted activity events into the 1µs interval that
// contains the given cycle.
func (s *Simulator) addEvent(st StructureID, cycle int64, weight float64) {
	idx := int(cycle / s.cyclesPerUs)
	s.ensureSample(idx)
	s.samples[idx].AF[st] += weight
	s.totalEvents[st] += weight
}

func (s *Simulator) addRetired(cycle int64) {
	idx := int(cycle / s.cyclesPerUs)
	s.ensureSample(idx)
	s.samples[idx].Retired++
}

func (s *Simulator) ensureSample(idx int) {
	for len(s.samples) <= idx {
		s.samples = append(s.samples, ActivitySample{Cycles: s.cyclesPerUs})
	}
}

// result finalises interval activity factors and whole-run statistics.
func (s *Simulator) result() Result {
	totalCycles := s.lastRetire + 1
	// Trim trailing intervals beyond the retirement horizon and normalise
	// event counts into activity factors.
	nIntervals := int(totalCycles / s.cyclesPerUs)
	if totalCycles%s.cyclesPerUs != 0 {
		nIntervals++
	}
	if nIntervals > len(s.samples) {
		nIntervals = len(s.samples)
	}
	samples := s.samples[:nIntervals]
	for i := range samples {
		cyc := samples[i].Cycles
		if i == len(samples)-1 {
			if rem := totalCycles - int64(i)*s.cyclesPerUs; rem > 0 && rem < cyc {
				cyc = rem
				samples[i].Cycles = rem
			}
		}
		for st := 0; st < NumStructures; st++ {
			af := samples[i].AF[st] / (s.caps[st] * float64(cyc))
			if af > 1 {
				af = 1
			}
			samples[i].AF[st] = af
		}
	}
	res := Result{
		Instructions: s.retired,
		Cycles:       totalCycles,
		Samples:      samples,
		Branches:     s.branches,
		Mispredicts:  s.mispredicts,
		L1IAccesses:  s.l1i.Accesses(),
		L1IMisses:    s.l1i.Misses(),
		L1DAccesses:  s.l1d.Accesses(),
		L1DMisses:    s.l1d.Misses(),
		L2Accesses:   s.l2.Accesses(),
		L2Misses:     s.l2.Misses(),
	}
	for st := 0; st < NumStructures; st++ {
		af := s.totalEvents[st] / (s.caps[st] * float64(totalCycles))
		if af > 1 {
			af = 1
		}
		res.AvgAF[st] = af
	}
	return res
}

// predictorKindOrDefault maps the zero value to gshare so older configs
// keep working.
func predictorKindOrDefault(k PredictorKind) PredictorKind {
	if k == 0 {
		return PredictorGshare
	}
	return k
}

// log2 returns floor(log2(x)) for x > 0.
func log2(x uint64) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}
