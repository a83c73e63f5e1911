package workload

import "math/rand"

// rng is math/rand's default source and the Rand methods the generator
// draws from, copied so that a draw is a few loads and an add instead of
// two interface calls. It yields exactly the values of
// rand.New(rand.NewSource(seed)), in the same order: every generated
// trace, and every result derived from one, depends on that stream.
//
// math/rand's source is an additive lagged-Fibonacci generator,
// x_n = x_{n-607} + x_{n-273} (mod 2^64), whose seeding goes through an
// unexported table. Rather than copy the table, seed takes the first
// rngLen outputs from rand.NewSource itself and solves the recurrence
// backwards for the register that produces them.
type rng struct {
	vec       [rngLen]uint64
	feed, tap int // slots of x_{n-607} and x_{n-273} for the next output x_n
}

const (
	rngLen = 607
	rngTap = 273
)

// unitMax bounds the 63-bit draws Float64 keeps: from 1<<63 - 512 up,
// float64(v) rounds to 1<<63, the quotient to 1.0, and Float64 draws again.
const unitMax = 1<<63 - 512

// seed sets r to the state of rand.NewSource(seed).
func (r *rng) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	var y [rngLen]uint64
	for i := range y {
		y[i] = src.Uint64()
	}
	// vec[k] holds x_{k-607}, chosen so that the recurrence run from it
	// outputs y[0], y[1], ... first: y[k] = vec[k] + vec[k+334] for k < 273,
	// and y[k] = vec[k] + y[k-273] after that.
	r.feed, r.tap = 0, rngLen-rngTap
	for k := rngTap; k < rngLen; k++ {
		r.vec[k] = y[k] - y[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		r.vec[k] = y[k] - r.vec[k+rngLen-rngTap]
	}
}

// uint64 advances the recurrence by one output, as rngSource.Uint64 does.
// Refilling all rngLen slots every rngLen draws instead puts a call on the
// inlined draw path, and measured slower.
func (r *rng) uint64() uint64 {
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	if r.feed++; r.feed == rngLen {
		r.feed = 0
	}
	if r.tap++; r.tap == rngLen {
		r.tap = 0
	}
	return x
}

// int63 is Rand.Int63.
func (r *rng) int63() int64 { return int64(r.uint64() & (1<<63 - 1)) }

// unit returns the Int63 draw behind one Float64 call, drawing again where
// Float64 would, so Float64 returns float64(unit()) / (1 << 63). Tests of
// the form Float64() < p become unit() < cut with a cut from below.
func (r *rng) unit() int64 {
	for {
		if v := r.int63(); v < unitMax {
			return v
		}
	}
}

// float64 is Rand.Float64.
func (r *rng) float64() float64 { return float64(float64(r.unit()) / (1 << 63)) }

// intn is Rand.Intn.
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(r.int63n(newBound(int64(n))))
	}
	// Rand.Int31n, on Int31 draws.
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(r.int63()>>32) & (m - 1))
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(r.int63() >> 32)
	for v > max {
		v = int32(r.int63() >> 32)
	}
	return int(v % m)
}

// bound is an Int63n argument with its rejection limit precomputed, for
// bounds fixed when the generator is built.
type bound struct{ n, max int64 }

func newBound(n int64) bound {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	return bound{n: n, max: int64((1 << 63) - 1 - (1<<63)%uint64(n))}
}

// int63n is Rand.Int63n(b.n).
func (r *rng) int63n(b bound) int64 {
	if b.n&(b.n-1) == 0 {
		return r.int63() & (b.n - 1)
	}
	v := r.int63()
	for v > b.max {
		v = r.int63()
	}
	return v % b.n
}

// below returns the cut c with test(Float64()) == (unit() < c) for every
// draw. test must hold on a prefix of [0, 1): x < p, x <= p, or x*s < p
// with s >= 0, so the draws passing it are exactly those below c.
func below(test func(x float64) bool) int64 {
	lo, hi := int64(0), int64(unitMax)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if test(float64(mid) / (1 << 63)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
