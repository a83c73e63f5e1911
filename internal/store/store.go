// Package store is the repository's one memo: a content-addressed map
// from a key to either the computation of that key in flight or its
// finished value. Keys are hex digests of the canonical encoding of
// everything that produced the value (internal/sim's StudyKey and per-stage
// keys), so a hit is — by construction — the exact output of the requested
// computation and no validation beyond the key is needed.
//
// Finished values live in a bounded in-memory LRU, with optional TTL
// expiry, and can optionally spill their encoded form to a directory, so a
// cold process (or a CLI run) restarts with a warm cache. Disk I/O failures
// degrade to cache misses: the store never fails a lookup or an insert
// because the spill tier is unhealthy, it only counts the error.
//
// Do (or its two halves, Join and Wait) runs a missing key's computation
// at most once however many callers ask: later callers join the running
// flight instead of starting their own. A flight is refcounted by its
// waiters and cancelled when the last one leaves; it is not on the LRU list,
// so it is never evicted; and only a success is stored, so a cancelled,
// failed or panicking computation cannot poison the memo. rampd's result memo
// (server.Cache) and the stage stores of internal/sim are instances.
package store

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/ramp-sim/ramp/internal/sched"
)

// Options bounds a Store.
type Options struct {
	// MaxEntries bounds the in-memory LRU (default 256, minimum 1).
	MaxEntries int
	// Dir, when non-empty, enables the disk spill tier rooted there. Each
	// store writes under Dir/<name>/. The directory is created on demand.
	Dir string
	// Observer, when non-nil, receives one Event per store operation
	// (lookups with their outcome, inserts, evictions, disk spills). It is
	// called without the store lock held, from whatever goroutine performed
	// the operation, and must be safe for concurrent use.
	Observer func(Event)
	// TTL, when positive, expires a memory-tier value that long after it
	// was stored; an expired value is dropped and looked up as a miss.
	TTL time.Duration
	// Now overrides the clock TTL expiry reads (default time.Now).
	Now func() time.Time
}

// Event operation and outcome labels.
const (
	// OpGet is a lookup; outcomes OutcomeHitMem / OutcomeHitDisk /
	// OutcomeMiss / OutcomeJoined.
	OpGet = "get"
	// OpPut is an insert; outcome OutcomeOK.
	OpPut = "put"
	// OpEvict is an LRU eviction; outcome OutcomeOK.
	OpEvict = "evict"
	// OpSpill is a disk-tier write; outcomes OutcomeOK / OutcomeError.
	OpSpill = "spill"

	OutcomeHitMem  = "hit_mem"
	OutcomeHitDisk = "hit_disk"
	OutcomeMiss    = "miss"
	// OutcomeJoined is a lookup that found the key in flight and waits on
	// that computation instead of starting its own.
	OutcomeJoined = "joined"
	OutcomeOK     = "ok"
	OutcomeError  = "error"
)

// Event describes one completed store operation for observability hooks.
type Event struct {
	// Store is the store's name (its stage, for the stage cache).
	Store string
	// Op is one of the Op* constants.
	Op string
	// Outcome is one of the Outcome* constants.
	Outcome string
}

// Codec serialises artifacts for the disk tier.
type Codec[T any] struct {
	Encode func(T) ([]byte, error)
	Decode func([]byte) (T, error)
}

// JSONCodec returns the default JSON artifact codec.
func JSONCodec[T any]() Codec[T] {
	return Codec[T]{
		Encode: func(v T) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (T, error) {
			var v T
			err := json.Unmarshal(b, &v)
			return v, err
		},
	}
}

// Stats is a consistent snapshot of a store's counters. MemHits, DiskHits,
// Misses and Joined partition counted lookups; a disk hit re-admits the
// decoded artifact to the memory tier.
type Stats struct {
	Entries                           int
	MemHits, DiskHits, Misses, Joined int64
	Puts, Evicted, Expired            int64
	DiskFailures                      int64
}

// Store is one artifact kind's memo. Create with New; the zero value is
// not usable. All methods are safe for concurrent use.
//
// Values are shared between the store and its callers: treat artifacts as
// immutable after Put.
type Store[T any] struct {
	mu      sync.Mutex
	name    string
	max     int
	ttl     time.Duration
	now     func() time.Time
	ll      *list.List // finished entries, front = most recently used
	items   map[string]*list.Element
	flights map[string]*Flight[T]
	dir     string // "" = memory only
	codec   Codec[T]
	stats   Stats
	observe func(Event) // nil = no observer
}

// event emits an operation event to the observer, if any. Never called
// with s.mu held.
func (s *Store[T]) event(op, outcome string) {
	if s.observe != nil {
		s.observe(Event{Store: s.name, Op: op, Outcome: outcome})
	}
}

// evictEvents emits n eviction events.
func (s *Store[T]) evictEvents(n int) {
	for ; n > 0; n-- {
		s.event(OpEvict, OutcomeOK)
	}
}

// entry is one resident artifact.
type entry[T any] struct {
	key     string
	val     T
	expires time.Time // zero = no expiry
}

// Flight is one running computation of a key, shared by every caller
// that asks for the key while it runs. Its fields are final once done is
// closed.
type Flight[T any] struct {
	key     string
	done    chan struct{}
	waiters int // guarded by the store's mu
	cancel  context.CancelFunc
	val     T
	err     error
	put     PutInfo
}

// Stored reports what storing the flight's value did. It is valid once a
// Wait on the flight has returned without error.
func (f *Flight[T]) Stored() PutInfo { return f.put }

// New returns a store named name (its subdirectory under Options.Dir).
// codec may be zero-valued when no spill directory is configured.
func New[T any](name string, opts Options, codec Codec[T]) (*Store[T], error) {
	if name == "" {
		return nil, fmt.Errorf("store: empty store name")
	}
	max := opts.MaxEntries
	if max <= 0 {
		max = 256
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Store[T]{
		name:    name,
		max:     max,
		ttl:     opts.TTL,
		now:     now,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*Flight[T]),
		codec:   codec,
		observe: opts.Observer,
	}
	if opts.Dir != "" {
		if codec.Encode == nil || codec.Decode == nil {
			return nil, fmt.Errorf("store %s: disk spill requires a codec", name)
		}
		dir := filepath.Join(opts.Dir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store %s: %w", name, err)
		}
		s.dir = dir
	}
	return s, nil
}

// validKey rejects keys that could escape the spill directory; keys are
// hex SHA-256 digests, so anything else indicates a caller bug.
func validKey(key string) bool {
	if len(key) < 16 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the finished artifact for key, consulting the memory tier
// then the disk tier. A disk hit decodes the artifact and promotes it to
// memory. A key still in flight is a miss.
func (s *Store[T]) Get(key string) (T, bool) {
	v, _, out := s.Join(nil, key, true, nil)
	return v, out == OutcomeHitMem || out == OutcomeHitDisk
}

// Do returns key's value: a finished one from memory or disk, otherwise
// fn's result, running fn at most once per flight however many callers
// ask. base parents the flight context handed to fn; ctx only governs
// this caller's wait. The outcome is OutcomeHitMem or OutcomeHitDisk for a
// stored value, OutcomeMiss when this caller started the flight, and
// OutcomeJoined when it joined one already running.
func (s *Store[T]) Do(ctx, base context.Context, key string,
	fn func(context.Context) (T, error)) (T, string, error) {
	v, f, out := s.Join(base, key, true, fn)
	if f == nil {
		return v, out, nil
	}
	v, err := s.Wait(ctx, f)
	return v, out, err
}

// Join is the first half of Do: it returns key's finished value, or the
// flight this caller now waits on — joined, or started running fn under a
// context derived from base. A caller given a flight must Wait on it
// exactly once. count selects whether the lookup counts toward the stats
// and emits a get event; a nil fn makes Join a plain lookup (Get) that
// neither joins nor starts a flight. An invalid key is a miss that is
// never counted, and its flight is never stored.
func (s *Store[T]) Join(base context.Context, key string, count bool,
	fn func(context.Context) (T, error)) (v T, f *Flight[T], out string) {
	valid := validKey(key)
	evicted := 0
	s.mu.Lock()
	out = OutcomeMiss
	if valid {
		v, f, out = s.findLocked(key, fn != nil)
		if out == OutcomeMiss && s.dir != "" {
			// Disk read outside the lock: decoding can be slow and must
			// not serialise unrelated lookups. The key may have been
			// stored or started meanwhile, so a disk miss looks again.
			s.mu.Unlock()
			dv, ok := s.readDisk(key)
			s.mu.Lock()
			if ok {
				v, out = dv, OutcomeHitDisk
				evicted = s.admitLocked(key, dv)
			} else {
				v, f, out = s.findLocked(key, fn != nil)
			}
		}
	}
	if out == OutcomeMiss && fn != nil {
		ctx, cancel := context.WithCancel(base)
		f = &Flight[T]{key: key, done: make(chan struct{}), waiters: 1, cancel: cancel}
		if valid {
			s.flights[key] = f
		}
		go s.fly(ctx, f, fn)
	}
	count = count && valid
	if count {
		switch out {
		case OutcomeHitMem:
			s.stats.MemHits++
		case OutcomeHitDisk:
			s.stats.DiskHits++
		case OutcomeJoined:
			s.stats.Joined++
		default:
			s.stats.Misses++
		}
	}
	s.mu.Unlock()
	if count {
		s.event(OpGet, out)
	}
	s.evictEvents(evicted)
	return v, f, out
}

// findLocked returns key's live finished value, promoted to most recently
// used, or — when join is set — its flight with this caller added as a
// waiter. An expired value is dropped. The caller holds s.mu.
func (s *Store[T]) findLocked(key string, join bool) (T, *Flight[T], string) {
	var zero T
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry[T])
		if e.expires.IsZero() || s.now().Before(e.expires) {
			s.ll.MoveToFront(el)
			return e.val, nil, OutcomeHitMem
		}
		delete(s.items, key)
		s.ll.Remove(el)
		s.stats.Expired++
	}
	if f, ok := s.flights[key]; ok && join {
		f.waiters++
		return zero, f, OutcomeJoined
	}
	return zero, nil, OutcomeMiss
}

// readDisk decodes key's spilled artifact, counting an unreadable one as
// a disk failure. Called without s.mu held.
func (s *Store[T]) readDisk(key string) (T, bool) {
	var zero T
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		return zero, false
	}
	v, err := s.codec.Decode(b)
	if err != nil {
		s.noteDiskFailure()
		return zero, false
	}
	return v, true
}

// fly runs one flight and settles it: a success still attached to its key
// becomes the key's finished value, a failure — a *sched.PanicError if fn
// panicked — frees the key.
func (s *Store[T]) fly(ctx context.Context, f *Flight[T], fn func(context.Context) (T, error)) {
	var v T
	err := sched.Protect(s.name+"/"+f.key, func() (err error) {
		v, err = fn(ctx)
		return err
	})
	f.val, f.err = v, err
	evicted, stored := 0, false
	s.mu.Lock()
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
		if err == nil {
			s.stats.Puts++
			evicted, stored = s.admitLocked(f.key, v), true
		}
	}
	s.mu.Unlock()
	if stored {
		f.put = s.spill(f.key, v, evicted)
	}
	close(f.done)
}

// Wait is the second half of Do: it blocks until the flight ends or ctx is
// done, then leaves it. The last waiter to leave cancels the flight
// context — a no-op if fn already returned, an abort if everyone gave up —
// and detaches a still-running flight from its key, so the next caller
// starts fresh instead of inheriting a cancelled computation.
func (s *Store[T]) Wait(ctx context.Context, f *Flight[T]) (T, error) {
	var v T
	var err error
	select {
	case <-f.done:
		v, err = f.val, f.err
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.waiters--; f.waiters == 0 {
		select {
		case <-f.done:
		default:
			if s.flights[f.key] == f {
				delete(s.flights, f.key)
			}
		}
		f.cancel()
	}
	return v, err
}

// PutInfo reports what one Put did beyond the memory-tier insert, so
// callers can annotate their own telemetry (the stage cache marks its
// store.put spans "spilled").
type PutInfo struct {
	// Spilled is true when the encoded artifact was written to the disk
	// tier.
	Spilled bool
	// Evicted is the number of memory-tier entries displaced.
	Evicted int
}

// Put stores the artifact under key in the memory tier and, when spill is
// configured, writes the encoded form to disk (atomically, via a temp file
// rename). Re-putting an existing key refreshes its value, LRU position
// and TTL; putting a key in flight detaches the flight, whose waiters
// still receive its own result.
func (s *Store[T]) Put(key string, v T) PutInfo {
	if !validKey(key) {
		return PutInfo{}
	}
	s.mu.Lock()
	delete(s.flights, key)
	s.stats.Puts++
	evicted := s.admitLocked(key, v)
	s.mu.Unlock()
	return s.spill(key, v, evicted)
}

// spill finishes an insert outside the lock: it emits the put and
// eviction events and writes the disk tier, if any.
func (s *Store[T]) spill(key string, v T, evicted int) PutInfo {
	s.event(OpPut, OutcomeOK)
	info := PutInfo{Evicted: evicted}
	s.evictEvents(evicted)
	if s.dir == "" {
		return info
	}
	b, err := s.codec.Encode(v)
	if err != nil {
		s.noteSpillFailure()
		return info
	}
	path := s.path(key)
	tmp, err := os.CreateTemp(s.dir, ".tmp-"+key[:8]+"-*")
	if err != nil {
		s.noteSpillFailure()
		return info
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.noteSpillFailure()
		return info
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.noteSpillFailure()
		return info
	}
	s.event(OpSpill, OutcomeOK)
	info.Spilled = true
	return info
}

// admitLocked inserts or refreshes a memory-tier entry, returning the
// number of entries evicted to stay within the bound; caller holds s.mu.
func (s *Store[T]) admitLocked(key string, v T) int {
	var expires time.Time
	if s.ttl > 0 {
		expires = s.now().Add(s.ttl)
	}
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry[T])
		e.val, e.expires = v, expires
		s.ll.MoveToFront(el)
		return 0
	}
	s.items[key] = s.ll.PushFront(&entry[T]{key: key, val: v, expires: expires})
	evicted := 0
	for s.ll.Len() > s.max {
		oldest := s.ll.Back()
		delete(s.items, oldest.Value.(*entry[T]).key)
		s.ll.Remove(oldest)
		s.stats.Evicted++
		evicted++
	}
	return evicted
}

// path maps a key to its spill file.
func (s *Store[T]) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

func (s *Store[T]) noteDiskFailure() {
	s.mu.Lock()
	s.stats.DiskFailures++
	s.mu.Unlock()
}

func (s *Store[T]) noteSpillFailure() {
	s.noteDiskFailure()
	s.event(OpSpill, OutcomeError)
}

// Len returns the memory-tier entry count.
func (s *Store[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Stats returns a snapshot of the counters.
func (s *Store[T]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.ll.Len()
	return st
}
