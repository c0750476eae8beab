// Package lru implements the least-recently-used fingerprint cache each
// SHHC hash node keeps in RAM (paper Figure 4: "Node N maintains a least
// recently used (LRU) cache list in RAM. If the LRU is full, it discards
// the least recently used fingerprints").
//
// RAM "serves as the cache for SSDs to absorb requests for frequent queries
// and hide the latency of SSD accesses" (paper §III.B). On a hit the entry
// moves to the MRU end; on insertion into a full cache the LRU entry is
// destaged (evicted) — optionally notifying the owner, which the hybrid
// node uses to flush dirty entries to the SSD hash table.
package lru

import (
	"sync/atomic"

	"shhc/internal/fingerprint"
)

// Value is the metadata cached per fingerprint: where the chunk lives.
// SHHC stores a location token; 8 bytes matches the paper's <fingerprint,
// locator> entries and keeps cache accounting simple.
type Value uint64

// entry is one cached fingerprint. The recency list (prev/next), the map,
// and dirty (changed only through setDirty) are owned by the cache's single
// writer (the stripe lock). The
// remaining fields form the lock-free read protocol: fp is written once
// before the entry is published through an atomic pointer (index bucket or
// hnext), val/dead/ref are atomics, so GetFast can walk an index chain and
// read a value with no lock at all.
type entry struct {
	fp         fingerprint.Fingerprint
	val        atomic.Uint64
	dirty      bool
	prev, next *entry

	// hnext chains entries within one index bucket, newest first.
	hnext atomic.Pointer[entry]
	// dead is set (before unlinking) when the entry leaves the cache, so a
	// reader that still holds a pointer to it reports a miss instead of a
	// value that may since have been superseded by a re-insert.
	dead atomic.Bool
	// ref is the lossy clock bit: GetFast sets it instead of touching the
	// recency list; evictTail's second-chance sweep consumes it under the
	// lock. When no lock-free reads occur the bit stays clear and eviction
	// order is the exact LRU order.
	ref atomic.Bool
}

// EvictFunc observes a destaged entry. dirty reports whether the entry was
// inserted (or updated) through PutDirty and never flushed.
type EvictFunc func(fp fingerprint.Fingerprint, val Value, dirty bool)

// Cache is a fixed-capacity LRU map from fingerprint to Value.
// Mutators are not safe for concurrent use — the owning node serializes
// them — but GetFast may run concurrently with any of them: it touches
// only the atomic index published by the single writer.
type Cache struct {
	capacity int
	items    map[fingerprint.Fingerprint]*entry
	// head is most recently used, tail is least recently used.
	head, tail *entry
	onEvict    EvictFunc

	// index is a chained hash table over the live entries, readable with
	// no lock. Buckets and chain links are atomic pointers; only the
	// (serialized) mutators write them.
	index   []atomic.Pointer[entry]
	idxMask uint64

	hits, misses, evictions uint64
	// fastHits counts GetFast hits; it is the only counter written without
	// the owner's serialization, so it is atomic and folded in by Stats.
	fastHits atomic.Uint64
	// dirtyN counts entries whose dirty flag is set. Written by the
	// serialized mutators, read lock-free by DirtyLen.
	dirtyN atomic.Int64
}

// New creates a cache holding at most capacity entries. onEvict may be nil.
// It panics if capacity is not positive: a node without cache RAM is
// configured by disabling the cache, not by a zero capacity.
func New(capacity int, onEvict EvictFunc) *Cache {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	buckets := 1
	for buckets < capacity {
		buckets <<= 1
	}
	return &Cache{
		capacity: capacity,
		items:    make(map[fingerprint.Fingerprint]*entry, capacity),
		onEvict:  onEvict,
		index:    make([]atomic.Pointer[entry], buckets),
		idxMask:  uint64(buckets - 1),
	}
}

// idxBucket picks an index bucket from bits independent of the stripe
// selector: Striped routes on the low bits of Bucket64, so within one
// stripe those bits are constant and only the high half spreads.
func (c *Cache) idxBucket(fp fingerprint.Fingerprint) uint64 {
	return (fp.Bucket64() >> 32) & c.idxMask
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.items) }

// Capacity returns the maximum number of entries.
func (c *Cache) Capacity() int { return c.capacity }

// Get looks up a fingerprint, promoting it to most-recently-used on a hit.
func (c *Cache) Get(fp fingerprint.Fingerprint) (Value, bool) {
	e, ok := c.items[fp]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.moveToFront(e)
	return Value(e.val.Load()), true
}

// GetFast looks up a fingerprint without taking any lock. It may run
// concurrently with the (serialized) mutators. Recency is recorded as a
// clock bit instead of a list move; a hit on an entry being concurrently
// removed linearizes before the removal, and a miss is always safe — the
// caller's locked slow path re-checks. GetFast never counts misses (the
// slow path will), so hits+misses still sum to lookups.
func (c *Cache) GetFast(fp fingerprint.Fingerprint) (Value, bool) {
	for e := c.index[c.idxBucket(fp)].Load(); e != nil; e = e.hnext.Load() {
		if e.fp != fp {
			continue
		}
		if e.dead.Load() {
			// A re-insert of fp publishes ahead of this corpse; missing
			// here (rather than scanning on) can only send the caller to
			// the slow path, never return a stale value.
			return 0, false
		}
		v := Value(e.val.Load())
		if !e.ref.Load() {
			e.ref.Store(true)
		}
		c.fastHits.Add(1)
		return v, true
	}
	return 0, false
}

// Peek looks up a fingerprint without updating recency or statistics.
func (c *Cache) Peek(fp fingerprint.Fingerprint) (Value, bool) {
	e, ok := c.items[fp]
	if !ok {
		return 0, false
	}
	return Value(e.val.Load()), true
}

// Put inserts or updates a clean entry (one already persisted on SSD),
// promoting it to most-recently-used. It reports whether an older entry was
// evicted to make room.
func (c *Cache) Put(fp fingerprint.Fingerprint, val Value) bool {
	return c.put(fp, val, false)
}

// PutDirty inserts or updates an entry that has not been persisted yet.
// The eviction callback sees dirty=true unless MarkCleanIf cleans it first.
func (c *Cache) PutDirty(fp fingerprint.Fingerprint, val Value) bool {
	return c.put(fp, val, true)
}

// PutIfAbsent inserts a clean entry only when the fingerprint is not
// already cached, reporting whether it inserted. An existing entry — its
// value, dirty flag, and recency — is left untouched, so a speculative
// install (e.g. of a stale probe result) can never overwrite a fresher or
// dirty entry.
func (c *Cache) PutIfAbsent(fp fingerprint.Fingerprint, val Value) bool {
	if _, ok := c.items[fp]; ok {
		return false
	}
	c.put(fp, val, false)
	return true
}

func (c *Cache) put(fp fingerprint.Fingerprint, val Value, dirty bool) bool {
	if e, ok := c.items[fp]; ok {
		e.val.Store(uint64(val))
		if dirty {
			c.setDirty(e, true)
		}
		c.moveToFront(e)
		return false
	}
	evicted := false
	if len(c.items) >= c.capacity {
		c.evictTail()
		evicted = true
	}
	e := &entry{fp: fp}
	e.val.Store(uint64(val))
	c.setDirty(e, dirty)
	c.items[fp] = e
	c.pushFront(e)
	c.indexInsert(e)
	return evicted
}

// indexInsert publishes e at the head of its index chain. The store into
// the bucket is the release point: every field written above it is visible
// to a GetFast that loads the pointer.
func (c *Cache) indexInsert(e *entry) {
	b := c.idxBucket(e.fp)
	e.hnext.Store(c.index[b].Load())
	c.index[b].Store(e)
}

// indexRemove marks e dead, then unlinks it from its chain. Readers that
// already hold e keep a valid (GC-protected) snapshot; readers that reach
// it after the dead store report a miss.
func (c *Cache) indexRemove(e *entry) {
	e.dead.Store(true)
	b := c.idxBucket(e.fp)
	if c.index[b].Load() == e {
		c.index[b].Store(e.hnext.Load())
		return
	}
	for p := c.index[b].Load(); p != nil; p = p.hnext.Load() {
		if p.hnext.Load() == e {
			p.hnext.Store(e.hnext.Load())
			return
		}
	}
}

// setDirty is the one place an entry's dirty flag changes, keeping dirtyN
// exact.
func (c *Cache) setDirty(e *entry, dirty bool) {
	if e.dirty == dirty {
		return
	}
	e.dirty = dirty
	if dirty {
		c.dirtyN.Add(1)
	} else {
		c.dirtyN.Add(-1)
	}
}

// MarkCleanIf clears fp's dirty flag if the entry still holds val — the
// value the owner just persisted. An entry re-dirtied with a newer value
// while that write was in flight stays dirty. It reports whether the entry
// is clean with val on return.
func (c *Cache) MarkCleanIf(fp fingerprint.Fingerprint, val Value) bool {
	e, ok := c.items[fp]
	if !ok || Value(e.val.Load()) != val {
		return false
	}
	c.setDirty(e, false)
	return true
}

// DirtyLen returns the number of dirty entries. Safe to call without the
// owner's serialization.
func (c *Cache) DirtyLen() int { return int(c.dirtyN.Load()) }

// ColdDirty visits up to limit dirty entries, coldest first, stopping
// early when visit returns false. It returns the number visited.
func (c *Cache) ColdDirty(limit int, visit func(fp fingerprint.Fingerprint, val Value) bool) int {
	n := 0
	for e := c.tail; e != nil && n < limit && n < int(c.dirtyN.Load()); e = e.prev {
		if !e.dirty {
			continue
		}
		n++
		if !visit(e.fp, Value(e.val.Load())) {
			break
		}
	}
	return n
}

// Remove deletes an entry without invoking the eviction callback.
// It reports whether the entry existed.
func (c *Cache) Remove(fp fingerprint.Fingerprint) bool {
	e, ok := c.items[fp]
	if !ok {
		return false
	}
	c.unlink(e)
	delete(c.items, fp)
	c.indexRemove(e)
	c.setDirty(e, false)
	return true
}

// Oldest returns the least-recently-used fingerprint, if any.
func (c *Cache) Oldest() (fingerprint.Fingerprint, bool) {
	if c.tail == nil {
		return fingerprint.Zero, false
	}
	return c.tail.fp, true
}

// Keys returns fingerprints from most- to least-recently-used. It allocates
// a fresh slice; mutation by the caller cannot corrupt the cache.
func (c *Cache) Keys() []fingerprint.Fingerprint {
	keys := make([]fingerprint.Fingerprint, 0, len(c.items))
	for e := c.head; e != nil; e = e.next {
		keys = append(keys, e.fp)
	}
	return keys
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
	Capacity  int
}

// HitRate returns hits / (hits + misses), or 0 for an unused cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the counters. Lock-free GetFast hits are
// folded into Hits.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits + c.fastHits.Load(),
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       len(c.items),
		Capacity:  c.capacity,
	}
}

func (c *Cache) evictTail() {
	// Second-chance sweep: a tail entry whose clock bit was set by GetFast
	// gets promoted (its lossy recency batched into the exact list, here,
	// under the lock) instead of evicted. Bounded by one full rotation so a
	// pathological all-referenced cache still evicts.
	for i := 0; i <= len(c.items); i++ {
		e := c.tail
		if e == nil {
			return
		}
		if e.ref.Load() && i < len(c.items) {
			e.ref.Store(false)
			c.moveToFront(e)
			continue
		}
		c.unlink(e)
		delete(c.items, e.fp)
		c.indexRemove(e)
		c.evictions++
		dirty := e.dirty
		c.setDirty(e, false)
		if c.onEvict != nil {
			c.onEvict(e.fp, Value(e.val.Load()), dirty)
		}
		return
	}
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
