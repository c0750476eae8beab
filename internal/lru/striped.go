package lru

import (
	"sync"

	"shhc/internal/fingerprint"
	"shhc/internal/pow2"
)

// Striped is a fingerprint cache split into power-of-two stripes, each an
// independent Cache guarded by its own mutex. A fingerprint always maps to
// the same stripe (by a hash independent of the ring and bucket hashes), so
// per-fingerprint recency is exact while eviction is only stripe-local:
// inserting into a full stripe evicts that stripe's LRU entry even if
// another stripe holds a globally older one. With the uniform fingerprints
// SHA-1 produces, stripes fill evenly and the approximation costs a few
// percent of hit rate at most — in exchange, Get/Put throughput scales with
// cores instead of serializing behind one lock.
//
// All methods are safe for concurrent use. The eviction callback runs with
// the evicting stripe's lock held, so a destage (store write) is atomic
// with the eviction as seen by any other operation on that fingerprint.
type Striped struct {
	stripes []cacheStripe
	mask    uint64
}

type cacheStripe struct {
	// The paper's "no device I/O under any cache-stripe lock" invariant
	// lives here; lockio enforces it for statically resolvable calls.
	// The eviction callback runs under this lock by design — it is a
	// func value lockio cannot see through, and the dynamic gated-store
	// tests cover that blind spot.
	mu sync.Mutex //shhc:lock ramonly
	c  *Cache
	// Pad stripes apart so neighboring locks do not share a cache line.
	_ [48]byte
}

// NewStriped creates a striped cache with total capacity split across at
// most the requested number of stripes. stripes is rounded down to a power
// of two and clamped so every stripe holds at least one entry; 1 stripe
// degenerates to a plain (exact-LRU) cache behind a lock. onEvict may be
// nil; it observes destaged entries exactly like Cache's callback.
func NewStriped(stripes, capacity int, onEvict EvictFunc) *Striped {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	if stripes > capacity {
		stripes = capacity
	}
	stripes = pow2.Floor(stripes)
	s := &Striped{
		stripes: make([]cacheStripe, stripes),
		mask:    uint64(stripes - 1),
	}
	base, extra := capacity/stripes, capacity%stripes
	for i := range s.stripes {
		c := base
		if i < extra {
			c++
		}
		s.stripes[i].c = New(c, onEvict)
	}
	return s
}

// stripe returns the stripe owning fp. Bucket64 (bytes 8..16) is
// independent of the ring prefix (bytes 0..8), so one node's share of the
// key space still spreads over all stripes.
func (s *Striped) stripe(fp fingerprint.Fingerprint) *cacheStripe {
	return &s.stripes[fp.Bucket64()&s.mask]
}

// Get looks up a fingerprint, promoting it within its stripe on a hit.
func (s *Striped) Get(fp fingerprint.Fingerprint) (Value, bool) {
	st := s.stripe(fp)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.c.Get(fp)
}

// GetFast looks up a fingerprint without taking the stripe mutex. This is
// the zero-alloc, lock-free cache-hit path: it walks the stripe's atomic
// index (see Cache.GetFast), recording recency as a clock bit that the
// next locked eviction sweep folds into the exact LRU order. A miss says
// nothing definitive — callers fall through to the locked walk, which
// re-checks under the stripe lock and counts the miss exactly once. A hit
// is counted by nobody here: Stats reports locked hits only, and the caller
// adds up its lock-free hits itself (a batch: once per stripe, not per key).
func (s *Striped) GetFast(fp fingerprint.Fingerprint) (Value, bool) {
	return s.stripe(fp).c.GetFast(fp)
}

// Put inserts or updates a clean entry, reporting whether the stripe
// evicted an older entry to make room.
func (s *Striped) Put(fp fingerprint.Fingerprint, val Value) bool {
	st := s.stripe(fp)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.c.Put(fp, val)
}

// PutDirty inserts or updates a not-yet-persisted entry.
func (s *Striped) PutDirty(fp fingerprint.Fingerprint, val Value) bool {
	st := s.stripe(fp)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.c.PutDirty(fp, val)
}

// TryMarkCleanIf clears fp's dirty flag if the entry still holds val, the
// value the owner just persisted (see Cache.MarkCleanIf). Like ColdDirty it
// never waits for the stripe lock: it reports false when the stripe was
// busy and the entry was left as it is.
func (s *Striped) TryMarkCleanIf(fp fingerprint.Fingerprint, val Value) bool {
	st := s.stripe(fp)
	if !st.mu.TryLock() {
		return false
	}
	st.c.MarkCleanIf(fp, val)
	st.mu.Unlock()
	return true
}

// Dirty reports whether fp is cached with a value not yet persisted.
func (s *Striped) Dirty(fp fingerprint.Fingerprint) bool {
	st := s.stripe(fp)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.c.Dirty(fp)
}

// DirtyLen returns the number of dirty entries across stripes without
// taking any stripe lock.
func (s *Striped) DirtyLen() int {
	n := 0
	for i := range s.stripes {
		n += s.stripes[i].c.DirtyLen()
	}
	return n
}

// ColdDirty visits up to limit dirty entries, an equal share per stripe and
// coldest first within each, returning the number visited. visit runs with
// the entry's stripe lock held — so the entry cannot be evicted, updated or
// removed until visit returns — and must therefore stay in RAM; returning
// false ends that stripe's share.
//
// ColdDirty never waits for a stripe lock: an eviction callback may hold one
// for as long as its owner applies backpressure, and the caller may be the
// very goroutine that relieves it. A stripe that is busy on both of two
// passes is skipped; its entries stay dirty for the next call.
func (s *Striped) ColdDirty(limit int, visit func(fp fingerprint.Fingerprint, val Value) bool) int {
	share := (limit + len(s.stripes) - 1) / len(s.stripes)
	n := 0
	var busy []*cacheStripe
	scan := func(st *cacheStripe) bool {
		if !st.mu.TryLock() {
			return false
		}
		n += st.c.ColdDirty(share, visit)
		st.mu.Unlock()
		return true
	}
	for i := range s.stripes {
		if st := &s.stripes[i]; st.c.DirtyLen() > 0 && !scan(st) {
			busy = append(busy, st)
		}
	}
	for _, st := range busy {
		scan(st)
	}
	return n
}

// Remove deletes an entry without invoking the eviction callback.
func (s *Striped) Remove(fp fingerprint.Fingerprint) bool {
	st := s.stripe(fp)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.c.Remove(fp)
}

// Capacity returns the total capacity across stripes.
func (s *Striped) Capacity() int {
	n := 0
	for i := range s.stripes {
		n += s.stripes[i].c.Capacity()
	}
	return n
}

// Stats sums the per-stripe counters. Each stripe is snapshotted under its
// own lock; concurrent mutators may land between stripes, so the aggregate
// is only loosely consistent (exact when the caller has quiesced writers).
func (s *Striped) Stats() Stats {
	var total Stats
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		st := s.stripes[i].c.Stats()
		s.stripes[i].mu.Unlock()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
		total.Len += st.Len
		total.Capacity += st.Capacity
	}
	return total
}
