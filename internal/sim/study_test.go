package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ramp-sim/ramp/internal/scaling"
	"github.com/ramp-sim/ramp/internal/sched"
	"github.com/ramp-sim/ramp/internal/workload"
)

// TestStudyParallelismDeterminism requires that the same study produces a
// byte-identical StudyResult at parallelism 1 and parallelism 8: the
// scheduler may reorder work but never the numbers.
func TestStudyParallelismDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	cfg := testConfig()
	cfg.Instructions = 100_000
	profiles := testProfiles(t)
	techs := scaling.Generations()[:3]

	runAt := func(parallelism int) *StudyResult {
		t.Helper()
		res, err := RunStudyContext(context.Background(), cfg, profiles, techs,
			StudyOptions{Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := runAt(1)
	parallel := runAt(8)

	if !reflect.DeepEqual(serial, parallel) {
		t.Error("StudyResult differs between parallelism 1 and 8")
	}
	b1, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b8) {
		t.Error("serialized StudyResult not byte-identical across parallelism levels")
	}
}

// TestStudyCancellation cancels a study mid-flight and requires a prompt
// context.Canceled return with no goroutines left behind.
func TestStudyCancellation(t *testing.T) {
	cfg := testConfig()
	cfg.Instructions = 50_000_000 // far more work than the test allows to finish
	profiles := testProfiles(t)
	techs := scaling.Generations()[:2]

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunStudyContext(ctx, cfg, profiles, techs, StudyOptions{Parallelism: 4})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the timing stage get going
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("study did not return promptly after cancellation")
	}

	// Workers unwind asynchronously after Run returns its error; poll
	// briefly instead of asserting an instantaneous count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancellation: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStudyProgressEvents checks that a full study reports exactly one
// completion event per task with consistent totals.
func TestStudyProgressEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("study run is slow; skipped with -short")
	}
	cfg := testConfig()
	cfg.Instructions = 100_000
	profiles := testProfiles(t)[:2]
	techs := scaling.Generations()[:2]

	var mu sync.Mutex
	byStage := map[string]int{}
	events := 0
	_, err := RunStudyContext(context.Background(), cfg, profiles, techs, StudyOptions{
		Parallelism: 2,
		OnProgress: func(p sched.Progress) {
			mu.Lock()
			defer mu.Unlock()
			events++
			byStage[p.Stage]++
			if p.Err != nil {
				t.Errorf("unexpected task failure %s: %v", p.Task, p.Err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, nt := len(profiles), len(techs)
	// timing + base per profile, scaled per (profile × non-base tech),
	// one qualify, one worst per tech.
	want := map[string]int{
		StageTiming:  n,
		StageBase:    n,
		StageScaled:  n * (nt - 1),
		StageQualify: 1,
		StageWorst:   nt,
	}
	total := 0
	for stage, w := range want {
		if byStage[stage] != w {
			t.Errorf("stage %s reported %d events, want %d", stage, byStage[stage], w)
		}
		total += w
	}
	if events != total {
		t.Errorf("got %d progress events, want %d", events, total)
	}
}

// TestEvaluateTechSharedTraceConcurrent stresses concurrent EvaluateTech
// calls over one shared ActivityTrace. The trace is read-only after timing,
// so concurrent evaluations must race-cleanly produce identical results.
// Kept fast enough for -short so `go test -race -short ./...` exercises it.
func TestEvaluateTechSharedTraceConcurrent(t *testing.T) {
	cfg := testConfig()
	cfg.Instructions = 50_000
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunTiming(cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	tech := scaling.Base()

	const workers = 8
	runs := make([]AppRun, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runs[w], errs[w] = EvaluateTech(cfg, tr, tech, 0, 1.0)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(runs[w], runs[0]) {
			t.Fatalf("worker %d produced a different AppRun than worker 0", w)
		}
	}
}

// TestRunTimings checks the bounded-pool timing helper returns traces in
// input order, identical to sequential RunTiming.
func TestRunTimings(t *testing.T) {
	cfg := testConfig()
	cfg.Instructions = 50_000
	profiles := testProfiles(t)[:2]

	got, err := RunTimings(context.Background(), cfg, profiles, StudyOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(profiles) {
		t.Fatalf("got %d traces, want %d", len(got), len(profiles))
	}
	for i, p := range profiles {
		want, err := RunTiming(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("trace %d (%s) differs from sequential RunTiming", i, p.Name)
		}
	}
}

// TestRunTimingCancelled checks that cancellation reaches the innermost
// simulation loop through the trace stream wrapper.
func TestRunTimingCancelled(t *testing.T) {
	cfg := testConfig()
	cfg.Instructions = 100_000_000
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunTimingContext(ctx, cfg, prof)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timing run did not stop after cancellation")
	}
}

// TestRunTimingCancellationCadence pins how soon: the timing stage polls
// its context once per batch of cancelCheckInterval instructions, so a
// context that cancels on its third poll stops it after exactly two
// batches, with no further polls.
func TestRunTimingCancellationCadence(t *testing.T) {
	cfg := testConfig()
	cfg.Instructions = 1_000_000
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cctx := &countingCtx{limit: 3}
	_, err = RunTimingContext(cctx, cfg, prof)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if cctx.calls != cctx.limit {
		t.Errorf("timing polled %d times; cancellation was visible at poll %d", cctx.calls, cctx.limit)
	}
	if want := fmt.Sprintf("after %d instructions", (cctx.limit-1)*cancelCheckInterval); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not report %q", err, want)
	}
}
