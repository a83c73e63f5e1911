package workload

import (
	"math"
	"testing"
)

// FuzzProfileValidate drives Profile.Validate and, for accepted profiles,
// the generator itself: any profile that passes validation must generate,
// skip and count exactly as the math/rand-based reference generator does
// (matchReference), without panicking. Rejections must come back as
// errors, never as panics — malformed numeric fields (NaN, Inf, wrapping
// sizes) included.
func FuzzProfileValidate(f *testing.F) {
	// A valid, gzip-like profile.
	f.Add(1, 0.40, 0.10, 0.25, 0.10, 0.15, 6.0, 0.7,
		uint64(48<<10), uint64(640<<10), 0.05, 0.01, 400, 0.93, 0.6, int64(0), 0.0, int64(42))
	// Phased variant.
	f.Add(2, 0.20, 0.30, 0.25, 0.10, 0.15, 8.0, 0.6,
		uint64(32<<10), uint64(1<<20), 0.10, 0.02, 300, 0.96, 0.7, int64(50_000), 3.0, int64(42))
	// Hostile numerics: NaN distance, Inf probability, wrapping sizes.
	f.Add(1, 0.40, 0.10, 0.25, 0.10, 0.15, math.NaN(), 0.7,
		uint64(48<<10), uint64(640<<10), 0.05, 0.01, 400, 0.93, 0.6, int64(0), 0.0, int64(42))
	f.Add(1, 0.40, 0.10, 0.25, 0.10, 0.15, 6.0, math.Inf(1),
		uint64(math.MaxUint64), uint64(math.MaxUint64), 0.05, 0.01, 400, 0.93, 0.6, int64(0), 0.0, int64(42))
	f.Add(1, math.NaN(), 0.10, 0.25, 0.10, 0.15, 6.0, 0.7,
		uint64(0), uint64(640<<10), -0.05, 0.01, 1<<30, 0.93, 0.6, int64(-1), math.NaN(), int64(42))
	// Edge values of the precomputed cuts: probabilities of 1, DepDist 1
	// (the distance walk never continues), odd region sizes, the lowest
	// seed.
	f.Add(1, 0.5, 0.0, 0.2, 0.1, 0.2, 1.0, 1.0,
		uint64(3), uint64(1536<<10+8), 1.0, 0.0, 2, 1.0, 1.0, int64(0), 0.0, int64(math.MinInt64))
	// Probabilities of 0, and a short phase period at the largest memory
	// scale the probabilities allow.
	f.Add(2, 0.0, 0.6, 0.2, 0.1, 0.1, 1.5, 0.0,
		uint64(48<<10), uint64(5), 0.1, 0.4, 3, 0.5, 0.0, int64(7), 2.0, int64(-1))
	// Branches only: body instructions draw their class from an empty mix.
	f.Add(1, 0.0, 0.0, 0.0, 0.0, 1.0, 3.0, 0.5,
		uint64(1), uint64(1), 0.0, 1.0, 2, 0.75, 0.5, int64(0), 0.0, int64(math.MaxInt64))

	f.Fuzz(func(t *testing.T, suite int,
		intALU, fpOp, load, store, branch, depDist, nearDep float64,
		hotBytes, warmBytes uint64, warmProb, coldProb float64,
		codeBlocks int, branchPred, loopProb float64,
		phaseInstrs int64, phaseMemScale float64, seed int64) {
		p := Profile{
			Name:  "fuzz",
			Suite: Suite(suite),
			Mix: Mix{
				IntALU: intALU, FPOp: fpOp, Load: load, Store: store, Branch: branch,
			},
			DepDist:              depDist,
			NearDepProb:          nearDep,
			HotBytes:             hotBytes,
			WarmBytes:            warmBytes,
			WarmProb:             warmProb,
			ColdProb:             coldProb,
			CodeBlocks:           codeBlocks,
			BranchPredictability: branchPred,
			LoopProb:             loopProb,
			PhaseInstrs:          phaseInstrs,
			PhaseMemScale:        phaseMemScale,
			Seed:                 seed,
		}
		if err := p.Validate(); err != nil {
			return // rejected cleanly — exactly what malformed input should do
		}
		matchReference(t, p, 10_000, refRound{next: 2000, batch: 2500, warm: 1500, skip: 500})
	})
}
