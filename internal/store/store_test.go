package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type artifact struct {
	Name string    `json:"name"`
	Vals []float64 `json:"vals"`
}

func key(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestStoreMemoryRoundTrip(t *testing.T) {
	s, err := New[artifact]("t", Options{MaxEntries: 4}, JSONCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	want := artifact{Name: "a", Vals: []float64{1, 2.5}}
	s.Put(key(1), want)
	got, ok := s.Get(key(1))
	if !ok || got.Name != "a" || len(got.Vals) != 2 {
		t.Fatalf("get = %+v, %v", got, ok)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("phantom hit")
	}
	st := s.Stats()
	if st.MemHits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, err := New[int]("t", Options{MaxEntries: 2}, JSONCodec[int]())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(1), 1)
	s.Put(key(2), 2)
	if _, ok := s.Get(key(1)); !ok { // promote 1; 2 becomes LRU
		t.Fatal("missing 1")
	}
	s.Put(key(3), 3)
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("2 should have been evicted")
	}
	if _, ok := s.Get(key(1)); !ok {
		t.Fatal("1 should have survived")
	}
	if st := s.Stats(); st.Evicted != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	s, err := New[int]("t", Options{}, Codec[int]{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "short", "../../../../etc/passwd", "ZZZZZZZZZZZZZZZZZZ"} {
		s.Put(k, 1)
		if _, ok := s.Get(k); ok {
			t.Fatalf("bad key %q accepted", k)
		}
	}
	if s.Len() != 0 {
		t.Fatal("bad keys stored")
	}
}

func TestStoreDiskSpill(t *testing.T) {
	dir := t.TempDir()
	s, err := New[artifact]("thermal", Options{MaxEntries: 1, Dir: dir}, JSONCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(1), artifact{Name: "one"})
	s.Put(key(2), artifact{Name: "two"}) // evicts 1 from memory; disk keeps it
	if got, ok := s.Get(key(1)); !ok || got.Name != "one" {
		t.Fatalf("disk tier lost key 1: %+v, %v", got, ok)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}

	onlySegments(t, filepath.Join(dir, "thermal"), 1)

	// A fresh store over the same directory starts warm, and spills to a
	// segment of its own.
	s2, err := New[artifact]("thermal", Options{MaxEntries: 4, Dir: dir}, JSONCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(key(2)); !ok || got.Name != "two" {
		t.Fatalf("fresh store get = %+v, %v", got, ok)
	}
	s2.Put(key(3), artifact{Name: "three"})
	onlySegments(t, filepath.Join(dir, "thermal"), 2)
}

// onlySegments fails unless dir holds exactly n segments and nothing else.
func onlySegments(t *testing.T, dir string, n int) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if !e.Type().IsRegular() || filepath.Ext(e.Name()) != ".seg" {
			t.Fatalf("%s is not a segment", e.Name())
		}
		segs = append(segs, filepath.Join(dir, e.Name()))
	}
	if len(segs) != n {
		t.Fatalf("%d segments, want %d: %v", len(segs), n, segs)
	}
	return segs
}

// TestStoreDiskCorruptionDegradesToMiss flips one byte of key 1's payload
// in the segment. The flipped record still decodes as JSON, so only the
// checksum stands between it and a wrong answer.
func TestStoreDiskCorruptionDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := New[artifact]("x", Options{MaxEntries: 1, Dir: dir}, JSONCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(1), artifact{Name: "one"})
	s.Put(key(2), artifact{Name: "two"}) // push 1 to disk only
	seg := onlySegments(t, filepath.Join(dir, "x"), 1)[0]
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(b, []byte(`"one"`))
	if at < 0 || at > bytes.Index(b, []byte(key(2))) {
		t.Fatalf("key 1's payload not found before key 2's record in %q", b)
	}
	b[at+1] = 'O'
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("corrupt artifact served")
	}
	if st := s.Stats(); st.DiskFailures != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got, ok := s.Get(key(2)); !ok || got.Name != "two" {
		t.Fatalf("intact record lost: %+v, %v", got, ok)
	}
}

// TestStoreDiskTornTail cuts the segment inside its last record, as a
// crash mid-append would. A fresh store opens, serves the records before
// the cut and misses the torn one.
func TestStoreDiskTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := New[artifact]("x", Options{Dir: dir}, JSONCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		s.Put(key(i), artifact{Name: fmt.Sprint(i), Vals: []float64{float64(i)}})
	}
	seg := onlySegments(t, filepath.Join(dir, "x"), 1)[0]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	fresh, err := New[artifact]("x", Options{Dir: dir}, JSONCodec[artifact]())
	if err != nil {
		t.Fatalf("open over a torn segment: %v", err)
	}
	for i := 1; i <= 2; i++ {
		if got, ok := fresh.Get(key(i)); !ok || got.Name != fmt.Sprint(i) {
			t.Fatalf("record %d before the tear: %+v, %v", i, got, ok)
		}
	}
	if _, ok := fresh.Get(key(3)); ok {
		t.Fatal("torn record served")
	}
	if st := fresh.Stats(); st.DiskHits != 2 || st.Misses != 1 || st.DiskFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStoreDiskKeyMismatch looks up a key that shares its index entry
// with a spilled one: the record's full key differs, so it is a miss and
// a disk failure, never the other key's artifact.
func TestStoreDiskKeyMismatch(t *testing.T) {
	s, err := New[artifact]("x", Options{MaxEntries: 1, Dir: t.TempDir()}, JSONCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	spilled := key(1)
	twin := spilled[:16] + key(2)[16:]
	if indexKey(twin) != indexKey(spilled) {
		t.Fatal("twin keys should share an index entry")
	}
	s.Put(spilled, artifact{Name: "one"})
	s.Put(key(3), artifact{Name: "three"}) // push key 1 to disk only
	if got, ok := s.Get(twin); ok {
		t.Fatalf("key mismatch served %+v", got)
	}
	if st := s.Stats(); st.DiskFailures != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got, ok := s.Get(spilled); !ok || got.Name != "one" {
		t.Fatalf("spilled key lost: %+v, %v", got, ok)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s, err := New[int]("t", Options{MaxEntries: 8, Dir: t.TempDir()}, JSONCodec[int]())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(i % 16)
				s.Put(k, i)
				if v, ok := s.Get(k); ok && v < 0 {
					t.Error("impossible value")
				}
				s.Len()
			}
		}(g)
	}
	wg.Wait()
}

func TestStoreNeedsNameAndCodecForSpill(t *testing.T) {
	if _, err := New[int]("", Options{}, JSONCodec[int]()); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New[int]("x", Options{Dir: t.TempDir()}, Codec[int]{}); err == nil {
		t.Fatal("spill without codec accepted")
	}
}

// TestStoreObserverEvents pins the operation counters: one count per
// operation, with outcomes distinguishing the memory tier, the disk tier,
// misses, evictions, and spills.
func TestStoreObserverEvents(t *testing.T) {
	dir := t.TempDir()
	s, err := New[artifact]("tstage", Options{MaxEntries: 2, Dir: dir}, JSONCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}

	s.Put(key(1), artifact{Name: "a"})
	s.Put(key(2), artifact{Name: "b"})
	s.Put(key(3), artifact{Name: "c"}) // evicts key(1) from memory
	if _, ok := s.Get(key(3)); !ok {
		t.Fatal("expected mem hit")
	}
	if _, ok := s.Get(key(1)); !ok { // disk promote, evicts again
		t.Fatal("expected disk hit")
	}
	if _, ok := s.Get(key(9)); ok {
		t.Fatal("phantom hit")
	}
	want := Stats{Entries: 2, MemHits: 1, DiskHits: 1, Misses: 1, Puts: 3, Evicted: 2, Spills: 3}
	if got := s.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}

	// A spill failure counts without failing the Put.
	if err := os.RemoveAll(filepath.Join(dir, "tstage")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tstage"), []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Put(key(4), artifact{Name: "d"})
	want.Puts, want.Evicted, want.SpillFailures, want.DiskFailures = 4, 3, 1, 1
	if got := s.Stats(); got != want {
		t.Errorf("stats after a failed spill = %+v, want %+v", got, want)
	}
}
