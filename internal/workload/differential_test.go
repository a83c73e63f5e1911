package workload

import (
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/ramp-sim/ramp/internal/trace"
)

// refRound is one round of the schedule matchReference drives both
// generators through: instructions read with Next, instructions read with
// NextBatch (the reference reads them with Next), then a warmed and a
// plain skip.
type refRound struct{ next, batch, warm, skip int }

// matchReference drives the generator and the reference generator for p
// through repeated rounds until both end, and fails at the first
// instruction, warm access, count or error on which they differ. The
// first round should generate more than 4096 instructions before its
// SkipWarm, so that later skips replay at the measured memory rate.
func matchReference(t testing.TB, p Profile, budget int64, r refRound) {
	t.Helper()
	g, err := New(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefGenerator(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	// refNext reads the reference's next instruction; ok is false at its end.
	refNext := func() (trace.Instruction, bool) {
		in, err := ref.Next()
		if err != nil && err != io.EOF {
			t.Fatalf("%s: reference: %v", p.Name, err)
		}
		return in, err == nil
	}
	var gw, rw recordWarmer
	buf := make([]trace.Instruction, 256)
	for {
		for i := 0; i < r.next; i++ {
			got, err := g.Next()
			want, ok := refNext()
			if (err == nil) != ok || (err != nil && err != io.EOF) {
				t.Fatalf("%s: at %d: Next error %v, reference ok %v", p.Name, ref.Produced(), err, ok)
			}
			if !ok {
				return
			}
			if got != want {
				t.Fatalf("%s: instruction %d: got %+v, want %+v", p.Name, ref.Produced()-1, got, want)
			}
		}
		for left := r.batch; left > 0; {
			n, err := g.NextBatch(buf[:min(left, len(buf))])
			for i := range buf[:n] {
				if want, ok := refNext(); !ok || buf[i] != want {
					t.Fatalf("%s: batched instruction %d: got %+v, want %+v (reference ok %v)",
						p.Name, ref.Produced()-1, buf[i], want, ok)
				}
			}
			left -= n
			if err != nil {
				if err != io.EOF {
					t.Fatalf("%s: NextBatch: %v", p.Name, err)
				}
				if _, ok := refNext(); ok {
					t.Fatalf("%s: generator ended at %d, reference goes on", p.Name, g.Produced())
				}
				return
			}
		}
		for _, skip := range []struct {
			n         int
			got, want trace.MemWarmer
		}{{r.warm, &gw, &rw}, {r.skip, nil, nil}} {
			gn, gErr := g.SkipWarm(int64(skip.n), skip.got)
			rn, rErr := ref.SkipWarm(int64(skip.n), skip.want)
			if gn != rn || gErr != rErr {
				t.Fatalf("%s: SkipWarm(%d) = %d, %v; reference %d, %v", p.Name, skip.n, gn, gErr, rn, rErr)
			}
		}
		if !slices.Equal(gw.addrs, rw.addrs) || !slices.Equal(gw.stores, rw.stores) {
			t.Fatalf("%s: skip before %d warmed %d accesses, reference %d, or different ones",
				p.Name, ref.Produced(), len(gw.addrs), len(rw.addrs))
		}
		gw, rw = recordWarmer{}, recordWarmer{}
		if g.Produced() != ref.Produced() {
			t.Fatalf("%s: produced %d, reference %d", p.Name, g.Produced(), ref.Produced())
		}
	}
}

// TestGeneratorMatchesReference checks the generator against the
// math/rand-based reference it replaced: every built-in profile, as
// shipped and with phases on, emits the same instructions through Next
// and NextBatch, counts the same Produced, and replays the same warm
// accesses when skips are interleaved.
func TestGeneratorMatchesReference(t *testing.T) {
	budget := int64(400_000)
	if testing.Short() {
		budget = 40_000
	}
	for _, p := range goldenVariants() {
		matchReference(t, p, budget, refRound{next: 3000, batch: 3000, warm: 9000, skip: 1000})
	}
}

// TestRNGMatchesMathRand checks the in-package source draw for draw
// against rand.New(rand.NewSource(seed)), on edge seeds and every profile
// seed, for each kind of draw the generator makes. The generator's
// streams are only as exact as this.
func TestRNGMatchesMathRand(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 20_000
	}
	seeds := []int64{0, -1, 1, 1<<31 - 1, math.MaxInt64, math.MinInt64 + 1}
	for _, p := range Profiles() {
		seeds = append(seeds, p.Seed)
	}
	warm := newBound(1536 << 10)
	kinds := []struct {
		name string
		got  func(*rng) float64
		want func(*rand.Rand) float64
	}{
		{"Float64", (*rng).float64, (*rand.Rand).Float64},
		{"Int63n(1536<<10)", func(r *rng) float64 { return float64(r.int63n(warm)) },
			func(r *rand.Rand) float64 { return float64(r.Int63n(1536 << 10)) }},
		{"Intn(8)", func(r *rng) float64 { return float64(r.intn(8)) },
			func(r *rand.Rand) float64 { return float64(r.Intn(8)) }},
		{"Intn(32)", func(r *rng) float64 { return float64(r.intn(32)) },
			func(r *rand.Rand) float64 { return float64(r.Intn(32)) }},
	}
	for _, seed := range seeds {
		for _, k := range kinds {
			var got rng
			got.seed(seed)
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < draws; i++ {
				if g, w := k.got(&got), k.want(want); g != w {
					t.Fatalf("seed %d: %s draw %d = %v, want %v", seed, k.name, i, g, w)
				}
			}
		}
	}
}

// TestUnitMaxIsFloat64Redraw pins where Float64 draws again: unitMax is
// the first 63-bit value whose quotient rounds up to 1.
func TestUnitMaxIsFloat64Redraw(t *testing.T) {
	if f := float64(int64(unitMax)) / (1 << 63); f != 1 {
		t.Fatalf("unitMax maps to %v, want 1", f)
	}
	if f := float64(int64(unitMax-1)) / (1 << 63); f >= 1 {
		t.Fatalf("unitMax-1 maps to %v, want below 1", f)
	}
}
