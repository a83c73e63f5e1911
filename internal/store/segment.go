package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// The disk tier is a directory of append-only segments, one per Store
// that has spilled. Each spill appends one record, little-endian:
//
//	u32 payload length | u32 CRC-32C over key+payload | u16 key length | key | payload
//
// New indexes the headers and keys of the segments already present, later
// records winning; a record that runs past the end of its file ends that
// segment's scan (a torn tail). A lookup reads one record and serves it
// only when its stored key and checksum match. Files that are not
// segments, such as the <key>.json spills of older versions, are ignored.

// recHeader is a record's header length: payload length, CRC, key length.
const recHeader = 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segSeq numbers the segments this process creates, so stores that open
// segments in the same nanosecond still get distinct names.
var segSeq atomic.Uint64

// ikey is a key's index form: its first 16 hex digits. Keys that share
// them share an index entry, and the full key in the record turns the
// loser's lookup into a miss.
type ikey uint64

// indexKey packs a key that validKey accepted.
func indexKey(key string) ikey {
	var k ikey
	for i := 0; i < 16; i++ {
		d := key[i] - '0'
		if key[i] >= 'a' {
			d = key[i] - 'a' + 10
		}
		k = k<<4 | ikey(d)
	}
	return k
}

// loc is where one record lies: its segment (an index into Store.segs),
// its offset and its length.
type loc struct {
	off int64
	n   uint32
	seg uint32
}

// openDisk indexes the segments under dir. The caller is New, so no other
// goroutine sees the store yet.
func (s *Store[T]) openDisk(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store %s: %w", s.name, err)
	}
	s.dir = dir
	s.index = make(map[ikey]loc)
	for _, e := range ents { // sorted by name, so oldest segment first
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), ".seg") {
			s.scan(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// scan indexes one segment's records from their headers and keys, without
// reading payloads. An unreadable segment counts as a disk failure.
func (s *Store[T]) scan(path string) {
	f, err := os.Open(path)
	if err != nil {
		s.stats.DiskFailures++
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		s.stats.DiskFailures++
		return
	}
	seg := uint32(len(s.segs))
	s.segs = append(s.segs, path)
	var buf [recHeader + 64]byte // a header and a SHA-256 hex key
	for off, size := int64(0), fi.Size(); off+recHeader <= size; {
		got, _ := f.ReadAt(buf[:], off) // a short read near the end is expected
		if got < recHeader {
			return
		}
		klen := int(binary.LittleEndian.Uint16(buf[8:]))
		n := int64(recHeader) + int64(klen) + int64(binary.LittleEndian.Uint32(buf[0:]))
		if off+n > size || n > math.MaxUint32 {
			return // torn tail
		}
		kb := buf[recHeader:min(got, recHeader+klen)]
		if len(kb) < klen {
			kb = make([]byte, klen)
			if _, err := f.ReadAt(kb, off+recHeader); err != nil {
				return
			}
		}
		if key := string(kb); validKey(key) {
			s.index[indexKey(key)] = loc{off: off, n: uint32(n), seg: seg}
		}
		off += n
	}
}

// appendRecord writes key's encoded artifact as one record at the end of
// the store's segment, creating the segment on first use, and indexes it.
// The segment is reopened for each append, so the store holds no file
// descriptor and a removed directory fails the spill. A failed append
// abandons the segment; the next spill starts a new one.
func (s *Store[T]) appendRecord(key string, payload []byte) bool {
	if len(key) > math.MaxUint16 || int64(len(payload)) > math.MaxUint32-recHeader-int64(len(key)) {
		return false
	}
	// The payload is written after the header and key, not copied behind
	// them: stage artifacts reach hundreds of kilobytes.
	head := make([]byte, recHeader, recHeader+len(key))
	binary.LittleEndian.PutUint32(head[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint16(head[8:], uint16(len(key)))
	head = append(head, key...)
	crc := crc32.Update(crc32.Checksum(head[recHeader:], castagnoli), castagnoli, payload)
	binary.LittleEndian.PutUint32(head[4:], crc)
	n := int64(len(head) + len(payload))

	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	created, flag := false, os.O_WRONLY|os.O_APPEND
	if s.ownPath == "" {
		s.ownPath = filepath.Join(s.dir, fmt.Sprintf("%020d-%d-%d.seg",
			time.Now().UnixNano(), os.Getpid(), segSeq.Add(1)))
		s.ownEnd = 0
		created, flag = true, flag|os.O_CREATE|os.O_EXCL
	}
	f, err := os.OpenFile(s.ownPath, flag, 0o644)
	if err == nil {
		if _, err = f.Write(head); err == nil {
			_, err = f.Write(payload)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.ownPath = ""
		return false
	}
	s.mu.Lock()
	if created {
		s.own = uint32(len(s.segs))
		s.segs = append(s.segs, s.ownPath)
	}
	s.index[indexKey(key)] = loc{off: s.ownEnd, n: uint32(n), seg: s.own}
	s.stats.Spills++
	s.mu.Unlock()
	s.ownEnd += n
	return true
}

// readRecord returns the payload of the record at l in the segment at
// path when the record's key is key and its checksum matches.
func readRecord(path string, l loc, key string) ([]byte, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	rec := make([]byte, l.n)
	if _, err := f.ReadAt(rec, l.off); err != nil || len(rec) < recHeader {
		return nil, false
	}
	klen := int(binary.LittleEndian.Uint16(rec[8:]))
	if int64(recHeader)+int64(klen)+int64(binary.LittleEndian.Uint32(rec[0:])) != int64(len(rec)) ||
		string(rec[recHeader:recHeader+klen]) != key ||
		crc32.Checksum(rec[recHeader:], castagnoli) != binary.LittleEndian.Uint32(rec[4:]) {
		return nil, false
	}
	return rec[recHeader+klen:], true
}
