package store

import (
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

	// A fresh store over the same directory starts warm.
	s2, err := New[artifact]("thermal", Options{MaxEntries: 4, Dir: dir}, JSONCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(key(2)); !ok || got.Name != "two" {
		t.Fatalf("fresh store get = %+v, %v", got, ok)
	}

	// No temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, "thermal", ".tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}
}

func TestStoreDiskCorruptionDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := New[artifact]("x", Options{MaxEntries: 1, Dir: dir}, JSONCodec[artifact]())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(1), artifact{Name: "one"})
	s.Put(key(2), artifact{Name: "two"}) // push 1 to disk only
	if err := os.WriteFile(filepath.Join(dir, "x", key(1)+".json"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("corrupt artifact served")
	}
	if st := s.Stats(); st.DiskFailures != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
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
