package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestLedgerRingEviction pins the ring semantics: dense sequence IDs,
// oldest-first eviction, O(1) Get by ID, and newest-first Runs.
func TestLedgerRingEviction(t *testing.T) {
	l := NewLedger(4)
	for i := 0; i < 10; i++ {
		rec := l.Append(RunRecord{Kind: "study", Outcome: RunOK})
		if rec.ID != uint64(i+1) {
			t.Fatalf("append %d assigned ID %d, want %d", i, rec.ID, i+1)
		}
	}
	st := l.Stats()
	if st.Appended != 10 || st.Retained != 4 || st.Capacity != 4 {
		t.Fatalf("stats = %+v, want appended 10, retained 4, capacity 4", st)
	}

	// Evicted IDs are gone; retained IDs resolve to themselves.
	if _, ok := l.Get(6); ok {
		t.Error("Get(6) found an evicted record")
	}
	if _, ok := l.Get(11); ok {
		t.Error("Get(11) found a never-appended record")
	}
	for id := uint64(7); id <= 10; id++ {
		rec, ok := l.Get(id)
		if !ok || rec.ID != id {
			t.Errorf("Get(%d) = (%v, %v), want the record itself", id, rec.ID, ok)
		}
	}

	// Runs returns newest first.
	runs := l.Runs(RunFilter{})
	if len(runs) != 4 {
		t.Fatalf("runs = %d records, want 4", len(runs))
	}
	for i, want := range []uint64{10, 9, 8, 7} {
		if runs[i].ID != want {
			t.Errorf("runs[%d].ID = %d, want %d", i, runs[i].ID, want)
		}
	}
}

func TestLedgerGetOnEmpty(t *testing.T) {
	l := NewLedger(2)
	if _, ok := l.Get(1); ok {
		t.Fatal("Get on an empty ledger reported a record")
	}
}

// TestLedgerFilters covers every RunFilter axis plus the limit.
func TestLedgerFilters(t *testing.T) {
	l := NewLedger(16)
	l.Append(RunRecord{Kind: "study", Key: "k1", Tenant: "acme", Outcome: RunOK})
	l.Append(RunRecord{Kind: "mc", Key: "k2", Tenant: "acme", Outcome: RunError})
	l.Append(RunRecord{Kind: "study", Key: "k1", Tenant: "umbrella", Outcome: RunOK})
	l.Append(RunRecord{Kind: "job.study", Key: "k3", Tenant: "acme", Outcome: RunOK})

	for _, tc := range []struct {
		name   string
		filter RunFilter
		want   []uint64 // expected IDs, newest first
	}{
		{"all", RunFilter{}, []uint64{4, 3, 2, 1}},
		{"tenant", RunFilter{Tenant: "acme"}, []uint64{4, 2, 1}},
		{"key", RunFilter{Key: "k1"}, []uint64{3, 1}},
		{"outcome", RunFilter{Outcome: RunError}, []uint64{2}},
		{"kind", RunFilter{Kind: "study"}, []uint64{3, 1}},
		{"combined", RunFilter{Tenant: "acme", Kind: "study"}, []uint64{1}},
		{"limit", RunFilter{Limit: 2}, []uint64{4, 3}},
		{"none", RunFilter{Tenant: "nobody"}, nil},
	} {
		got := l.Runs(tc.filter)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d records, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i, id := range tc.want {
			if got[i].ID != id {
				t.Errorf("%s: runs[%d].ID = %d, want %d", tc.name, i, got[i].ID, id)
			}
		}
	}
}

// TestLedgerConcurrentAppendAndSubscribe drives concurrent appenders
// against a draining subscriber and concurrent readers — the shape
// /v1/ops/tail exercises — under the race detector.
func TestLedgerConcurrentAppendAndSubscribe(t *testing.T) {
	l := NewLedger(32)
	const writers, perWriter = 8, 50

	live, cancel := l.Subscribe(writers * perWriter)
	defer cancel()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Append(RunRecord{Kind: "study", Key: fmt.Sprintf("w%d-%d", w, i), Outcome: RunOK})
			}
		}(w)
	}
	// Concurrent readers exercise Get/Runs/Stats against the appends.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Runs(RunFilter{Limit: 5})
				l.Get(uint64(i))
				l.Stats()
			}
		}()
	}
	wg.Wait()

	st := l.Stats()
	if st.Appended != writers*perWriter {
		t.Fatalf("appended = %d, want %d", st.Appended, writers*perWriter)
	}
	if st.Retained != 32 {
		t.Fatalf("retained = %d, want capacity 32", st.Retained)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped = %d with a buffer sized for every append", st.Dropped)
	}
	// Every append was delivered exactly once, IDs strictly increasing
	// per the append order observed by the subscriber channel.
	cancel()
	var last uint64
	delivered := 0
	for rec := range live {
		if rec.ID <= last {
			t.Fatalf("subscription delivered ID %d after %d", rec.ID, last)
		}
		last = rec.ID
		delivered++
	}
	if delivered != writers*perWriter {
		t.Fatalf("delivered = %d, want %d", delivered, writers*perWriter)
	}
}

// TestLedgerSlowSubscriberDropsNotBlocks: a full subscriber buffer must
// never stall Append — records are dropped for that subscriber and
// counted.
func TestLedgerSlowSubscriberDropsNotBlocks(t *testing.T) {
	l := NewLedger(8)
	_, cancel := l.Subscribe(1) // never drained
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			l.Append(RunRecord{Kind: "study", Outcome: RunOK})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Append blocked on a slow subscriber")
	}
	if st := l.Stats(); st.Dropped != 19 {
		t.Fatalf("dropped = %d, want 19 (buffer of 1 absorbed one record)", st.Dropped)
	}
}

// TestLedgerSubscribeCancelIdempotent: double-cancel must not panic on a
// double close.
func TestLedgerSubscribeCancelIdempotent(t *testing.T) {
	l := NewLedger(2)
	_, cancel := l.Subscribe(1)
	cancel()
	cancel()
}

// TestRunRecordEncodingGolden pins the byte-exact JSON encoding of a
// fully-populated RunRecord. The field order and the sorted map keys are
// the /v1/ops wire schema — this encoding may only ever grow new fields,
// never reorder or rename existing ones.
func TestRunRecordEncodingGolden(t *testing.T) {
	rec := RunRecord{
		ID:            42,
		Kind:          "job.study",
		Key:           "sha256:abc",
		Tenant:        "acme",
		RequestID:     "req-1",
		TraceID:       "0af7651916cd43dd8448eb211c80319c",
		JobID:         "job-7",
		Attempt:       2,
		Fidelity:      "fast",
		Mechanisms:    []string{"EM", "TC"},
		Outcome:       RunError,
		Error:         "boom",
		ResultCache:   ResultMiss,
		Start:         time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		WallMS:        12.5,
		QueueMS:       3.25,
		CPUMS:         40,
		Instructions:  200000,
		Cells:         4,
		CellsComputed: 3,
		Replicas:      100,
		Stages: map[string]StageCost{
			"timing":  {Count: 2, WallMS: 5, CPUMS: 9},
			"thermal": {Count: 2, WallMS: 7, CPUMS: 31},
		},
		Cache: map[string]CacheCost{
			"fit": {Hits: 1, Misses: 2, Puts: 2, Spills: 1},
		},
	}
	const golden = `{"id":42,"kind":"job.study","key":"sha256:abc",` +
		`"tenant":"acme","request_id":"req-1",` +
		`"trace_id":"0af7651916cd43dd8448eb211c80319c","job_id":"job-7",` +
		`"attempt":2,"fidelity":"fast","mechanisms":["EM","TC"],` +
		`"outcome":"error","error":"boom","result_cache":"miss",` +
		`"start":"2026-08-08T12:00:00Z","wall_ms":12.5,"queue_ms":3.25,` +
		`"cpu_ms":40,"instructions":200000,"cells":4,"cells_computed":3,` +
		`"replicas":100,` +
		`"stages":{"thermal":{"count":2,"wall_ms":7,"cpu_ms":31},` +
		`"timing":{"count":2,"wall_ms":5,"cpu_ms":9}},` +
		`"cache":{"fit":{"hits":1,"misses":2,"puts":2,"spills":1}}}`
	got, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Errorf("encoding drifted:\n got %s\nwant %s", got, golden)
	}

	// The minimal record omits every optional field.
	minimal := RunRecord{ID: 1, Kind: "study", Outcome: RunOK,
		Start: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC), WallMS: 1}
	const goldenMin = `{"id":1,"kind":"study","outcome":"ok",` +
		`"start":"2026-08-08T12:00:00Z","wall_ms":1}`
	got, err = json.Marshal(minimal)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenMin {
		t.Errorf("minimal encoding drifted:\n got %s\nwant %s", got, goldenMin)
	}
}

func TestOutcomeFor(t *testing.T) {
	wrapped := fmt.Errorf("study: %w", context.Canceled)
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, RunOK},
		{errors.New("boom"), RunError},
		{context.Canceled, RunCancelled},
		{wrapped, RunCancelled},
		{context.DeadlineExceeded, RunDeadline},
	} {
		if got := OutcomeFor(tc.err); got != tc.want {
			t.Errorf("OutcomeFor(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestRunStatsAggregation feeds real tracer spans through a RunStats sink
// and checks the per-stage, per-cache, cell, and replica aggregation, plus
// the additive Fill contract that lets a handler merge flight-level and
// handler-level stats into one record.
func TestRunStatsAggregation(t *testing.T) {
	stats := NewRunStats()
	ctx := WithTracer(context.Background(), NewTracer(stats))

	finish := func(name string, attrs ...Attr) {
		_, sp := StartSpan(ctx, name)
		for _, a := range attrs {
			sp.SetAttr(a.Key, a.Value)
		}
		sp.Finish()
	}
	finish(SpanTiming)
	finish(SpanTiming, Attr{"cache", "joined"}) // billed to the run it joined
	finish(SpanThermal)
	finish(SpanThermal)
	finish(SpanFIT)
	finish(SpanMCBatch, Attr{"replicas", "250"})
	finish(SpanCell, Attr{"source", "computed"})
	finish(SpanCell, Attr{"source", "cached"})
	finish(SpanCacheGet, Attr{"stage", "fit"}, Attr{"result", "hit"})
	finish(SpanCacheGet, Attr{"stage", "fit"}, Attr{"result", "miss"})
	finish(SpanCacheGet, Attr{"stage", "fit"}, Attr{"result", "joined"})
	finish(SpanCachePut, Attr{"stage", "fit"}, Attr{"spilled", "true"})

	var rec RunRecord
	stats.Fill(&rec)
	if rec.Stages["timing"].Count != 1 || rec.Stages["thermal"].Count != 2 ||
		rec.Stages["fit"].Count != 1 || rec.Stages["mc"].Count != 1 {
		t.Fatalf("stage counts = %+v", rec.Stages)
	}
	if rec.Replicas != 250 {
		t.Errorf("replicas = %d, want 250", rec.Replicas)
	}
	if rec.Cells != 2 || rec.CellsComputed != 1 {
		t.Errorf("cells = %d computed %d, want 2/1", rec.Cells, rec.CellsComputed)
	}
	if c := rec.Cache["fit"]; c.Hits != 1 || c.Misses != 1 || c.Puts != 1 || c.Spills != 1 {
		t.Errorf("cache cost = %+v", c)
	}

	// Fill is additive: a second Fill doubles the counts.
	stats.Fill(&rec)
	if rec.Stages["thermal"].Count != 4 || rec.Cells != 4 || rec.Replicas != 500 {
		t.Errorf("second Fill did not add: %+v cells=%d replicas=%d",
			rec.Stages, rec.Cells, rec.Replicas)
	}
}
