package server

import (
	"container/list"
	"context"
	"sync"
	"time"

	"github.com/ramp-sim/ramp/internal/obs"
)

// Cache is the result memo: a content-addressed map from a study key
// (sim.StudyKey / sim.MCStudyKey) to either the computation of that key
// in flight or its finished value. Because a hit is by construction the
// exact result of the requested computation, the map serves repeats from
// memory and lets concurrent identical requests share one computation.
//
// Finished values live on an LRU list bounded to max entries, with TTL
// expiry. In-flight entries are not on the list: they never count toward
// the bound and are never evicted. Only successful results are stored, so
// deadline-exceeded and cancelled runs cannot poison the memo.
type Cache struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	ll      *list.List // finished entries, front = most recently used
	items   map[string]*cacheEntry
	now     func() time.Time
	hits    int64
	misses  int64
	evicted int64
	expired int64
}

// cacheEntry is one key's state. A finished entry holds its value, expiry
// and LRU element. An in-flight entry (done != nil) is a computation with
// a waiter refcount; when it ends, val and err are final, and a success
// is stored as a fresh finished entry.
type cacheEntry struct {
	key     string
	val     any
	expires time.Time // zero = no expiry
	el      *list.Element

	done    chan struct{}
	waiters int
	cancel  context.CancelFunc
	err     error
}

// NewCache returns a cache bounded to max entries (min 1) with the given
// TTL; a non-positive TTL disables expiry. now overrides the clock for
// tests; nil uses time.Now.
func NewCache(max int, ttl time.Duration, now func() time.Time) *Cache {
	if max < 1 {
		max = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Cache{
		max:   max,
		ttl:   ttl,
		ll:    list.New(),
		items: make(map[string]*cacheEntry),
		now:   now,
	}
}

// liveLocked returns key's entry and whether it is a live finished value,
// which it promotes to most recently used. An expired value is removed and
// reported as absent; an in-flight entry is returned with false. The
// caller holds c.mu.
func (c *Cache) liveLocked(key string) (*cacheEntry, bool) {
	e, ok := c.items[key]
	if !ok || e.done != nil {
		return e, false
	}
	if !e.expires.IsZero() && !c.now().Before(e.expires) {
		c.removeLocked(e)
		c.expired++
		return nil, false
	}
	c.ll.MoveToFront(e.el)
	return e, true
}

// Get returns the finished value for key, promoting it to most recently
// used. Expired entries are removed and reported as misses, and so is a
// key still in flight.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.liveLocked(key); ok {
		c.hits++
		return e.val, true
	}
	c.misses++
	return nil, false
}

// Put stores the value under key, evicting the least recently used entry
// when the bound is exceeded. Re-putting an existing key refreshes its
// value and TTL; putting a key in flight detaches the flight, whose
// waiters still receive its own result.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(key, val)
}

// storeLocked makes val key's finished value. The caller holds c.mu.
func (c *Cache) storeLocked(key string, val any) {
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if e, ok := c.items[key]; ok && e.done == nil {
		e.val, e.expires = val, expires
		c.ll.MoveToFront(e.el)
		return
	}
	e := &cacheEntry{key: key, val: val, expires: expires}
	e.el = c.ll.PushFront(e)
	c.items[key] = e
	for c.ll.Len() > c.max {
		c.removeLocked(c.ll.Back().Value.(*cacheEntry))
		c.evicted++
	}
}

// removeLocked drops a finished entry; the caller holds c.mu.
func (c *Cache) removeLocked(e *cacheEntry) {
	delete(c.items, e.key)
	c.ll.Remove(e.el)
}

// Do returns key's value: the finished one if resident, otherwise fn's
// result, running fn at most once per flight however many callers ask.
// base parents the flight context handed to fn; ctx only governs this
// caller's wait. The disposition is obs.ResultHit for a resident value,
// obs.ResultMiss when this caller started the flight, and
// obs.ResultCoalesced when it joined one already running.
func (c *Cache) Do(ctx, base context.Context, key string,
	fn func(context.Context) (any, error)) (any, string, error) {
	v, e, disp := c.join(base, key, true, fn)
	if e == nil {
		return v, disp, nil
	}
	v, err := c.wait(ctx, e)
	return v, disp, err
}

// join is the first half of Do: it returns key's finished value, or the
// flight this caller now waits on — joined, or started running fn. count
// selects whether the lookup counts toward the hit/miss counters. A
// caller given a flight must wait on it exactly once.
func (c *Cache) join(base context.Context, key string, count bool,
	fn func(context.Context) (any, error)) (any, *cacheEntry, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.liveLocked(key)
	if count {
		if ok {
			c.hits++
		} else {
			c.misses++
		}
	}
	switch {
	case ok:
		return e.val, nil, obs.ResultHit
	case e != nil:
		e.waiters++
		return nil, e, obs.ResultCoalesced
	}
	fctx, cancel := context.WithCancel(base)
	e = &cacheEntry{key: key, done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.items[key] = e
	go c.fly(fctx, e, fn)
	return nil, e, obs.ResultMiss
}

// fly runs one flight and settles it: a success still attached to its key
// becomes the key's finished value, a failure frees the key.
func (c *Cache) fly(ctx context.Context, e *cacheEntry, fn func(context.Context) (any, error)) {
	v, err := fn(ctx)
	c.mu.Lock()
	e.val, e.err = v, err
	if c.items[e.key] == e {
		if err == nil {
			c.storeLocked(e.key, v)
		} else {
			delete(c.items, e.key)
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// wait blocks until the flight ends or ctx is done, then leaves it. The
// last waiter to leave cancels the flight context — a no-op if fn already
// returned, an abort if everyone gave up — and detaches a still-running
// flight from its key, so the next request starts fresh instead of
// inheriting a cancelled computation.
func (c *Cache) wait(ctx context.Context, e *cacheEntry) (any, error) {
	var v any
	var err error
	select {
	case <-e.done:
		v, err = e.val, e.err
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.waiters--; e.waiters == 0 {
		select {
		case <-e.done:
		default:
			if c.items[e.key] == e {
				delete(c.items, e.key)
			}
		}
		e.cancel()
	}
	return v, err
}

// Len returns the current count of finished entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a consistent snapshot of the cache counters.
type CacheStats struct {
	Entries                        int
	Hits, Misses, Evicted, Expired int64
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: c.ll.Len(),
		Hits:    c.hits,
		Misses:  c.misses,
		Evicted: c.evicted,
		Expired: c.expired,
	}
}
