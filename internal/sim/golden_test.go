package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"github.com/ramp-sim/ramp/internal/workload"
)

// goldenTimingDigest pins the timing-stage results of every built-in
// profile: exact fidelity at 300 000 instructions, then phase fidelity at
// 1 000 000. Performance work on the generator, the instruction handoff or
// the core must leave it fixed.
const goldenTimingDigest = "9079fd3cbbbc51fd20a435364dbe7e0c00a26a43858aceb94948564fde70d3d2"

func TestTimingResultGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the timing stage of 16 profiles twice; skipped with -short")
	}
	h := sha256.New()
	for _, run := range []struct {
		instrs   int64
		fidelity *Fidelity
	}{
		{300_000, nil},
		{1_000_000, &Fidelity{Mode: FidelityPhase}},
	} {
		cfg := DefaultConfig()
		cfg.Instructions = run.instrs
		cfg.Fidelity = run.fidelity
		for _, p := range workload.Profiles() {
			tr, err := RunTimingContext(context.Background(), cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(tr.Timing)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTimingDigest {
		t.Fatalf("timing results changed: digest %s, want %s", got, goldenTimingDigest)
	}
}
