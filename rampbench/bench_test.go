package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	ok := []float64{4, 1, 3, 2, 5}
	if got := percentile(ok, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(ok, 90); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6 (interpolated)", got)
	}
	withFailure := append(ok, math.Inf(1))
	if got := percentile(withFailure, 50); got != 3.5 {
		t.Errorf("p50 with one failure = %v, want 3.5", got)
	}
	if got := percentile(withFailure, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with one failure in six = %v, want +Inf", got)
	}
	if got := finite(math.Inf(1)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v, want the largest float", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runDriver runs the benchmark in process and decodes its last line.
func runDriver(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(context.Background(), args, &out, &errb); code != 0 {
		t.Fatalf("rampbench %v exited %d:\n%s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run not correct: attempted %d, failed %d\n%s", res.Attempted, res.Failed, errb.String())
	}
	return res
}

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// TestSmoke runs every workload at a twentieth of its size, then a traced
// cold-exact run at a fifth, and checks the printed metrics against
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts rampd and drives every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the driver", i, w.Name, workloads[i].name)
		}
	}

	res := runDriver(t, "-check", "-scale", "0.05", "-seconds", "1.5")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			got, ok := res.Metrics[w.name+"."+m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s %s: got %+v (present %v), want a positive value in %s", w.name, m.Name, got, ok, m.Unit)
			}
		}
	}

	// Coverage is a ratio of timings; a slow spell on a shared host can
	// push one traced run out of bounds, so a second run is allowed. A
	// stage missing from the decomposition fails both.
	for attempt := 1; ; attempt++ {
		res = runDriver(t, "-trace", "1", "-workload", "cold-exact", "-scale", "0.2")
		for _, m := range spec.PerLayer {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
			}
		}
		c := res.Metrics["sim.study_coverage"].Value
		if c >= coverageLo && c <= coverageHi || raceDetector {
			return
		}
		if attempt == 2 {
			t.Fatalf("sim.study_coverage = %.3f, want within [%.2f, %.2f]", c, coverageLo, coverageHi)
		}
		t.Logf("sim.study_coverage = %.3f out of bounds; measuring again", c)
	}
}
