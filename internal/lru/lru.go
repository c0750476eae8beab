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
//
// A Cache is one fixed slab of entries and one index over it. Entries are
// addressed by slot number (0 is nil), so the recency list and the index
// chains hold no pointers and an insert into a full cache rewrites the
// victim's slot in place: the steady state allocates nothing. The index is
// a chained hash table of atomic slot numbers; the serialized writer walks
// it for every operation and is the only one to change it, and GetFast
// walks it with no lock, validating each slot it reads against the slot's
// version (see entry.seq).
package lru

import (
	"sync/atomic"

	"shhc/internal/fingerprint"
)

// Value is the metadata cached per fingerprint: where the chunk lives.
// SHHC stores a location token; 8 bytes matches the paper's <fingerprint,
// locator> entries and keeps cache accounting simple.
type Value uint64

// entry is one slot of the slab. prev/next (the recency list, or the free
// list while the slot is vacant) and dirty (changed only through setDirty)
// belong to the cache's single writer. Everything a lock-free reader
// touches is atomic, and seq, the slot's version, makes the group of them
// readable as one — a seqlock. It is even while the slot holds a live
// entry and odd while it does not: vacated by Remove, or between an
// eviction and the insert that reuses the slot. The writer makes it odd
// before it unlinks the slot or touches fp, and even again only once the
// new fingerprint, value and chain link are in place. A reader loads seq,
// then the fields, then seq again: an odd or changed version means the
// slot was recycled under it, and it reports a miss — which only ever
// sends the caller to the locked walk. fp is held as atomic words so that
// a reader racing the rewrite is a benign mismatch, not a data race.
type entry struct {
	fpA, fpB   atomic.Uint64
	val        atomic.Uint64
	fpC        atomic.Uint32
	seq        atomic.Uint32
	hnext      atomic.Uint32 // next slot in the index chain, newest first
	prev, next uint32
	// ref is the lossy clock bit: GetFast sets it instead of touching the
	// recency list; evictTail's second-chance sweep consumes it under the
	// lock. When no lock-free reads occur the bit stays clear and eviction
	// order is the exact LRU order.
	ref   atomic.Bool
	dirty bool
}

func (e *entry) holds(fp fingerprint.Fingerprint) bool {
	return e.fpA.Load() == fp.Prefix64() && e.fpB.Load() == fp.Bucket64() && e.fpC.Load() == fp.Tail32()
}

func (e *entry) fingerprint() fingerprint.Fingerprint {
	return fingerprint.FromWords(e.fpA.Load(), e.fpB.Load(), e.fpC.Load())
}

// EvictFunc observes a destaged entry. dirty reports whether the entry was
// inserted (or updated) through PutDirty and never flushed.
type EvictFunc func(fp fingerprint.Fingerprint, val Value, dirty bool)

// Cache is a fixed-capacity LRU map from fingerprint to Value.
// Mutators are not safe for concurrent use — the owning node serializes
// them — but GetFast may run concurrently with any of them: it touches
// only the atomic index and slot fields published by the single writer.
type Cache struct {
	capacity int
	onEvict  EvictFunc

	// slab[1..capacity] are the slots; slots are first handed out in order
	// (used counts them), then recycled: by eviction in place, by Remove
	// through the free list.
	slab []entry
	n    int
	used uint32
	free uint32
	// head is most recently used, tail is least recently used.
	head, tail uint32

	index   []atomic.Uint32
	idxMask uint64

	hits, misses, evictions uint64 // GetFast counts nothing here
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
	// Two 4-byte buckets per entry: a miss — the common answer on the path
	// that inserts — then usually ends at an empty bucket, not at some
	// other entry's cache line.
	buckets := 1
	for buckets < 2*capacity {
		buckets <<= 1
	}
	return &Cache{
		capacity: capacity,
		onEvict:  onEvict,
		slab:     make([]entry, capacity+1),
		index:    make([]atomic.Uint32, buckets),
		idxMask:  uint64(buckets - 1),
	}
}

// bucket picks an index bucket from bits independent of the stripe
// selector: Striped routes on the low bits of Bucket64, so within one
// stripe those bits are constant and only the high half spreads.
func (c *Cache) bucket(fp fingerprint.Fingerprint) *atomic.Uint32 {
	return &c.index[(fp.Bucket64()>>32)&c.idxMask]
}

// find is the writer's index walk: the slot holding fp, or 0.
func (c *Cache) find(fp fingerprint.Fingerprint) uint32 {
	for i := c.bucket(fp).Load(); i != 0; i = c.slab[i].hnext.Load() {
		if c.slab[i].holds(fp) {
			return i
		}
	}
	return 0
}

// Capacity returns the maximum number of entries.
func (c *Cache) Capacity() int { return c.capacity }

// Get looks up a fingerprint, promoting it to most-recently-used on a hit.
func (c *Cache) Get(fp fingerprint.Fingerprint) (Value, bool) {
	i := c.find(fp)
	if i == 0 {
		c.misses++
		return 0, false
	}
	c.hits++
	c.moveToFront(i)
	return Value(c.slab[i].val.Load()), true
}

// GetFast looks up a fingerprint without taking any lock. It may run
// concurrently with the (serialized) mutators. Recency is recorded as a
// clock bit instead of a list move; a hit on an entry being concurrently
// removed linearizes before the removal, and a miss is always safe — the
// caller's locked slow path re-checks. A slot recycled mid-walk ends the
// walk with a miss rather than following a link into some other chain.
// GetFast counts nothing: the slow path counts its misses, the caller its
// hits.
func (c *Cache) GetFast(fp fingerprint.Fingerprint) (Value, bool) {
	for i := c.bucket(fp).Load(); i != 0; {
		e := &c.slab[i]
		seq := e.seq.Load()
		match, v, next := e.holds(fp), e.val.Load(), e.hnext.Load()
		if seq&1 != 0 || e.seq.Load() != seq {
			return 0, false
		}
		if match {
			if !e.ref.Load() {
				e.ref.Store(true)
			}
			return Value(v), true
		}
		i = next
	}
	return 0, false
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

func (c *Cache) put(fp fingerprint.Fingerprint, val Value, dirty bool) bool {
	if i := c.find(fp); i != 0 {
		e := &c.slab[i]
		e.val.Store(uint64(val))
		if dirty {
			c.setDirty(e, true)
		}
		c.moveToFront(i)
		return false
	}
	return c.insert(fp, val, dirty)
}

// insert adds an entry known to be absent, into the slot of the entry it
// evicts when the cache is full. The slot it writes is vacant (seq odd, in
// no chain); the seq increment makes the rewritten fields valid to a reader
// that still holds the slot number, and the store into the bucket publishes
// the entry to everyone else.
func (c *Cache) insert(fp fingerprint.Fingerprint, val Value, dirty bool) bool {
	evicted := c.n >= c.capacity
	var i uint32
	switch {
	case evicted:
		i = c.evictTail()
	case c.free != 0:
		i = c.free
		c.free = c.slab[i].next
	default:
		c.used++
		i = c.used
		c.slab[i].seq.Store(1)
	}
	e := &c.slab[i]
	e.fpA.Store(fp.Prefix64())
	e.fpB.Store(fp.Bucket64())
	e.fpC.Store(fp.Tail32())
	e.val.Store(uint64(val))
	if e.ref.Load() {
		e.ref.Store(false)
	}
	c.setDirty(e, dirty)
	b := c.bucket(fp)
	e.hnext.Store(b.Load())
	e.seq.Add(1)
	b.Store(i)
	c.pushFront(i)
	c.n++
	return evicted
}

// vacate takes slot i out of the cache: off the recency list, marked
// vacant — before it leaves its chain, so a reader that reaches it from
// now on reports a miss instead of walking past a possible fresh reinsert
// ahead of it — and unlinked from the index.
func (c *Cache) vacate(i uint32) {
	e := &c.slab[i]
	c.unlink(i)
	c.n--
	e.seq.Add(1)
	b := c.bucket(e.fingerprint())
	if b.Load() == i {
		b.Store(e.hnext.Load())
		return
	}
	for p := b.Load(); p != 0; p = c.slab[p].hnext.Load() {
		if c.slab[p].hnext.Load() == i {
			c.slab[p].hnext.Store(e.hnext.Load())
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
	i := c.find(fp)
	if i == 0 || Value(c.slab[i].val.Load()) != val {
		return false
	}
	c.setDirty(&c.slab[i], false)
	return true
}

// Dirty reports whether fp is cached with a value not yet persisted.
func (c *Cache) Dirty(fp fingerprint.Fingerprint) bool {
	i := c.find(fp)
	return i != 0 && c.slab[i].dirty
}

// DirtyLen returns the number of dirty entries. Safe to call without the
// owner's serialization.
func (c *Cache) DirtyLen() int { return int(c.dirtyN.Load()) }

// ColdDirty visits up to limit dirty entries, coldest first, stopping
// early when visit returns false. It returns the number visited.
func (c *Cache) ColdDirty(limit int, visit func(fp fingerprint.Fingerprint, val Value) bool) int {
	n := 0
	for i := c.tail; i != 0 && n < limit && n < int(c.dirtyN.Load()); i = c.slab[i].prev {
		e := &c.slab[i]
		if !e.dirty {
			continue
		}
		n++
		if !visit(e.fingerprint(), Value(e.val.Load())) {
			break
		}
	}
	return n
}

// Remove deletes an entry without invoking the eviction callback.
// It reports whether the entry existed.
func (c *Cache) Remove(fp fingerprint.Fingerprint) bool {
	i := c.find(fp)
	if i == 0 {
		return false
	}
	c.vacate(i)
	c.setDirty(&c.slab[i], false)
	c.slab[i].next = c.free
	c.free = i
	return true
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
	Capacity  int
}

// Stats returns a snapshot of the counters. Hits are Get hits only (see
// GetFast).
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       c.n,
		Capacity:  c.capacity,
	}
}

// evictTail evicts the least-recently-used entry and returns its slot,
// vacant, for the caller to reuse.
func (c *Cache) evictTail() uint32 {
	// Second-chance sweep: a tail entry whose clock bit was set by GetFast
	// gets promoted (its lossy recency batched into the exact list, here,
	// under the lock) instead of evicted. Bounded by one full rotation so a
	// pathological all-referenced cache still evicts.
	for spared := 0; spared < c.n && c.slab[c.tail].ref.Load(); spared++ {
		c.slab[c.tail].ref.Store(false)
		c.moveToFront(c.tail)
	}
	i := c.tail
	e := &c.slab[i]
	c.vacate(i)
	c.evictions++
	dirty := e.dirty
	c.setDirty(e, false)
	if c.onEvict != nil {
		c.onEvict(e.fingerprint(), Value(e.val.Load()), dirty)
	}
	return i
}

func (c *Cache) pushFront(i uint32) {
	e := &c.slab[i]
	e.prev, e.next = 0, c.head
	if c.head != 0 {
		c.slab[c.head].prev = i
	}
	c.head = i
	if c.tail == 0 {
		c.tail = i
	}
}

func (c *Cache) unlink(i uint32) {
	e := &c.slab[i]
	if e.prev != 0 {
		c.slab[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != 0 {
		c.slab[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *Cache) moveToFront(i uint32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}
