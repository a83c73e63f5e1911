package sched_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/store"
)

// TestNestedMemoDoOnOneSlot nests memo flights the way a study does — a
// FIT flight asks for a thermal artifact, whose flight asks for a trace —
// with each level's own work on a one-slot pool, and runs several such
// chains at once. A caller waiting on a flight holds no slot, so every
// chain completes.
func TestNestedMemoDoOnOneSlot(t *testing.T) {
	p := sched.NewPool(1)
	newStore := func(name string) *store.Store[int] {
		s, err := store.New(name, store.Options{}, store.Codec[int]{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	key := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	trace, thermal, fit := newStore("trace"), newStore("thermal"), newStore("fit")
	work := func(ctx context.Context, v int) (int, error) {
		var out int
		err := p.Run(ctx, "leaf", func(context.Context) error { out = v + 1; return nil })
		return out, err
	}
	// level asks st for key, computing it as work on the value below.
	level := func(st *store.Store[int], k string, below func(context.Context) (int, error)) func(context.Context) (int, error) {
		return func(ctx context.Context) (int, error) {
			v, _, err := st.Do(ctx, context.WithoutCancel(ctx), k, func(ctx context.Context) (int, error) {
				in, err := below(ctx)
				if err != nil {
					return 0, err
				}
				return work(ctx, in)
			})
			return v, err
		}
	}
	const chains = 6
	errs := make(chan error, chains)
	for c := 0; c < chains; c++ {
		// Chains share the trace, pair up on thermal keys and own their
		// FIT keys, so flights are both joined and led.
		tr := level(trace, key("trace"), func(context.Context) (int, error) { return 0, nil })
		th := level(thermal, key(fmt.Sprint("thermal", c/2)), tr)
		f := level(fit, key(fmt.Sprint("fit", c)), th)
		go func() {
			v, err := f(context.Background())
			if err == nil && v != 3 {
				err = fmt.Errorf("value %d, want 3", v)
			}
			errs <- err
		}()
	}
	for c := 0; c < chains; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
