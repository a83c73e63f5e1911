package store

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestStoreSegmentConcurrentPutGet has eight goroutines put overlapping
// keys into one disk-backed store while four others read them. With one
// memory slot most reads go to the segment; every value served must be
// one some writer put under that key.
func TestStoreSegmentConcurrentPutGet(t *testing.T) {
	const keys, writers, rounds = 16, 8, 50
	dir := t.TempDir()
	s, err := New[int]("c", Options{MaxEntries: 1, Dir: dir}, JSONCodec[int]())
	if err != nil {
		t.Fatal(err)
	}
	check := func(k, v int, ok bool) {
		if ok && v%keys != k {
			t.Errorf("key %d served %d", k, v)
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v, ok := s.Get(key(i % keys))
				check(i%keys, v, ok)
			}
		}(r)
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i + g) % keys
				if !s.Put(key(k), k+keys*g).Spilled {
					t.Error("put did not spill")
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if st := s.Stats(); st.Spills != writers*rounds || st.DiskFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	onlySegments(t, filepath.Join(dir, "c"), 1)
	fresh, err := New[int]("c", Options{Dir: dir}, JSONCodec[int]())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		v, ok := fresh.Get(key(k))
		if !ok {
			t.Fatalf("key %d not on disk", k)
		}
		check(k, v, ok)
	}
}

// TestStoreSegmentsVisibleToLaterStore has two stores spill into one
// directory. Neither sees the other's appends, and a third store opened
// afterwards serves every key from disk.
func TestStoreSegmentsVisibleToLaterStore(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store[int] {
		s, err := New[int]("v", Options{Dir: dir}, JSONCodec[int]())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := open(), open()
	for i := 0; i < 10; i++ {
		a.Put(key(i), i)
		b.Put(key(i+5), i+5)
	}
	if _, ok := a.Get(key(14)); ok {
		t.Fatal("a store served a key appended after it opened")
	}
	onlySegments(t, filepath.Join(dir, "v"), 2)
	c := open()
	for i := 0; i < 15; i++ {
		if v, ok := c.Get(key(i)); !ok || v != i {
			t.Fatalf("key %d: %d, %v", i, v, ok)
		}
	}
	if st := c.Stats(); st.DiskHits != 15 || st.Misses != 0 || st.DiskFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// record encodes one segment record as the layout in segment.go defines
// it, independently of the store's writer.
func record(key string, payload []byte) []byte {
	b := make([]byte, recHeader, recHeader+len(key)+len(payload))
	binary.LittleEndian.PutUint32(b[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint16(b[8:], uint16(len(key)))
	b = append(append(b, key...), payload...)
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[recHeader:], crc32.MakeTable(crc32.Castagnoli)))
	return b
}

// walkSegment reads seg record by record and returns the keys it names
// and, per key, the payloads of its records whose checksum matches.
func walkSegment(seg []byte) ([]string, map[string]map[string]bool) {
	var keys []string
	good := make(map[string]map[string]bool)
	for len(seg) >= recHeader {
		klen := int(binary.LittleEndian.Uint16(seg[8:]))
		n := int64(recHeader) + int64(klen) + int64(binary.LittleEndian.Uint32(seg))
		if n > int64(len(seg)) {
			break
		}
		k := string(seg[recHeader : recHeader+klen])
		keys = append(keys, k)
		if crc32.Checksum(seg[recHeader:n], crc32.MakeTable(crc32.Castagnoli)) == binary.LittleEndian.Uint32(seg[4:]) {
			if good[k] == nil {
				good[k] = make(map[string]bool)
			}
			good[k][string(seg[recHeader+klen:n])] = true
		}
		seg = seg[n:]
	}
	return keys, good
}

// FuzzSpillSegment opens a store over arbitrary bytes written as a
// segment, alone and after a valid record. Opening and every lookup of the
// keys the bytes name must not panic, and a lookup either misses or serves
// the payload of a record with that key whose checksum matches.
func FuzzSpillSegment(f *testing.F) {
	raw := Codec[[]byte]{
		Encode: func(b []byte) ([]byte, error) { return b, nil },
		Decode: func(b []byte) ([]byte, error) { return b, nil },
	}
	errRan := errors.New("computed")
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, head := range [][]byte{nil, record(key(1), []byte(`{"valid":true}`))} {
			seg := append(append([]byte(nil), head...), data...)
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, "f"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "f", "0.seg"), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := New("f", Options{Dir: dir}, raw)
			if err != nil {
				t.Fatal(err)
			}
			keys, good := walkSegment(seg)
			for _, k := range append(keys, key(1)) {
				if v, ok := s.Get(k); ok && !good[k][string(v)] {
					t.Fatalf("Get(%q) served %q, not a checksummed record", k, v)
				}
				v, out, err := s.Do(context.Background(), context.Background(), k,
					func(context.Context) ([]byte, error) { return nil, errRan })
				switch {
				case out == OutcomeHitMem || out == OutcomeHitDisk:
					if err != nil || !good[k][string(v)] {
						t.Fatalf("Do(%q) served %q (%v), not a checksummed record", k, v, err)
					}
				case !errors.Is(err, errRan):
					t.Fatalf("Do(%q) = %s, %v; want the computation's error", k, out, err)
				}
			}
		}
	})
}

// BenchmarkStorePutSpill times one Put of a new key into a disk-backed
// store: encoding the artifact and writing it to the disk tier. The fit
// artifact is about the size of a FIT stage result (~3 KB encoded), the
// thermal one about a 300k-instruction thermal series (~50 KB).
func BenchmarkStorePutSpill(b *testing.B) {
	for _, bc := range []struct {
		name string
		vals int
	}{{"fit", 160}, {"thermal", 2700}} {
		b.Run(bc.name, func(b *testing.B) {
			a := artifact{Name: bc.name, Vals: make([]float64, bc.vals)}
			for i := range a.Vals {
				a.Vals[i] = 300 + float64(i)/7
			}
			enc, err := JSONCodec[artifact]().Encode(a)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(enc)))
			s, err := New[artifact]("bench", Options{MaxEntries: 1, Dir: b.TempDir()}, JSONCodec[artifact]())
			if err != nil {
				b.Fatal(err)
			}
			keys := make([]string, b.N)
			for i := range keys {
				keys[i] = key(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, k := range keys {
				if !s.Put(k, a).Spilled {
					b.Fatal("put did not spill")
				}
			}
		})
	}
}
