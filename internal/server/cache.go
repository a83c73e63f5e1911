package server

import (
	"time"

	"github.com/ramp-sim/ramp/internal/store"
)

// Cache is the result memo: a memory-only store.Store keyed by study key
// (sim.StudyKey / sim.MCStudyKey), bounded to its entry count with TTL
// expiry. The store maps each key to the computation of that key in
// flight or to its finished value, so it serves repeats from memory and
// lets concurrent identical requests share one computation; only
// successful results are stored, so deadline-exceeded and cancelled runs
// cannot poison it.
type Cache struct {
	*store.Store[any]
}

// NewCache returns a cache bounded to max entries (min 1) with the given
// TTL; a non-positive TTL disables expiry. now overrides the clock for
// tests; nil uses time.Now.
func NewCache(max int, ttl time.Duration, now func() time.Time) *Cache {
	if max < 1 {
		max = 1
	}
	st, err := store.New("result", store.Options{MaxEntries: max, TTL: ttl, Now: now}, store.Codec[any]{})
	if err != nil {
		panic(err) // a named memory-only store cannot fail to open
	}
	return &Cache{st}
}

// CacheStats is a consistent snapshot of the cache counters. A lookup that
// joined a flight counts as a miss: it did not find a finished result.
type CacheStats struct {
	Entries                        int
	Hits, Misses, Evicted, Expired int64
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	st := c.Store.Stats()
	return CacheStats{
		Entries: st.Entries,
		Hits:    st.MemHits,
		Misses:  st.Misses + st.Joined,
		Evicted: st.Evicted,
		Expired: st.Expired,
	}
}
