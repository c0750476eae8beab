package lru

import (
	"math/rand"
	"slices"
	"testing"

	"shhc/internal/fingerprint"
)

// refCache is the cache as it was before the slab: a Go map over heap
// entries on a pointer list, a fresh entry per insert. It is kept as the
// oracle for TestCacheMatchesReference (the ring/reference_test.go pattern):
// obviously right, and sharing no code with Cache.
type refEntry struct {
	fp         fingerprint.Fingerprint
	val        Value
	dirty, ref bool
	prev, next *refEntry
}

type refCache struct {
	capacity                int
	items                   map[fingerprint.Fingerprint]*refEntry
	head, tail              *refEntry
	onEvict                 EvictFunc
	hits, misses, evictions uint64
	dirtyN                  int
}

func newRef(capacity int, onEvict EvictFunc) *refCache {
	return &refCache{capacity: capacity, items: make(map[fingerprint.Fingerprint]*refEntry), onEvict: onEvict}
}

func (c *refCache) Get(fp fingerprint.Fingerprint) (Value, bool) {
	e, ok := c.items[fp]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.moveToFront(e)
	return e.val, true
}

func (c *refCache) GetFast(fp fingerprint.Fingerprint) (Value, bool) {
	e, ok := c.items[fp]
	if !ok {
		return 0, false
	}
	e.ref = true
	return e.val, true
}

func (c *refCache) Put(fp fingerprint.Fingerprint, val Value) bool { return c.put(fp, val, false) }

func (c *refCache) PutDirty(fp fingerprint.Fingerprint, val Value) bool { return c.put(fp, val, true) }

func (c *refCache) put(fp fingerprint.Fingerprint, val Value, dirty bool) bool {
	if e, ok := c.items[fp]; ok {
		e.val = val
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
	e := &refEntry{fp: fp, val: val}
	c.setDirty(e, dirty)
	c.items[fp] = e
	c.pushFront(e)
	return evicted
}

func (c *refCache) setDirty(e *refEntry, dirty bool) {
	if e.dirty == dirty {
		return
	}
	e.dirty = dirty
	if dirty {
		c.dirtyN++
	} else {
		c.dirtyN--
	}
}

func (c *refCache) MarkCleanIf(fp fingerprint.Fingerprint, val Value) bool {
	e, ok := c.items[fp]
	if !ok || e.val != val {
		return false
	}
	c.setDirty(e, false)
	return true
}

func (c *refCache) ColdDirty(limit int, visit func(fp fingerprint.Fingerprint, val Value) bool) int {
	n := 0
	for e := c.tail; e != nil && n < limit && n < c.dirtyN; e = e.prev {
		if !e.dirty {
			continue
		}
		n++
		if !visit(e.fp, e.val) {
			break
		}
	}
	return n
}

func (c *refCache) Remove(fp fingerprint.Fingerprint) bool {
	e, ok := c.items[fp]
	if !ok {
		return false
	}
	c.unlink(e)
	delete(c.items, fp)
	c.setDirty(e, false)
	return true
}

func (c *refCache) Keys() []fingerprint.Fingerprint {
	keys := make([]fingerprint.Fingerprint, 0, len(c.items))
	for e := c.head; e != nil; e = e.next {
		keys = append(keys, e.fp)
	}
	return keys
}

func (c *refCache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: len(c.items), Capacity: c.capacity}
}

func (c *refCache) evictTail() {
	for i := 0; i <= len(c.items); i++ {
		e := c.tail
		if e.ref && i < len(c.items) {
			e.ref = false
			c.moveToFront(e)
			continue
		}
		c.unlink(e)
		delete(c.items, e.fp)
		c.evictions++
		dirty := e.dirty
		c.setDirty(e, false)
		if c.onEvict != nil {
			c.onEvict(e.fp, e.val, dirty)
		}
		return
	}
}

func (c *refCache) pushFront(e *refEntry) {
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

func (c *refCache) unlink(e *refEntry) {
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

func (c *refCache) moveToFront(e *refEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

type eviction struct {
	fp    fingerprint.Fingerprint
	val   Value
	dirty bool
}

type answer struct {
	val Value
	ok  bool
}

type visited struct {
	fp  fingerprint.Fingerprint
	val Value
}

// TestCacheMatchesReference drives the slab cache and the reference with
// the same seeded random steps — over a key space a few times the capacity,
// so hits, updates, evictions, removals and slot reuse through both the
// free list and eviction all occur — and requires the same answer from
// every call, the same eviction callbacks in the same order, and the same
// observable state throughout.
func TestCacheMatchesReference(t *testing.T) {
	steps := 1 << 20
	if testing.Short() {
		steps = 1 << 16
	}
	keys := make([]fingerprint.Fingerprint, 4*64)
	for i := range keys {
		keys[i] = fp(uint64(i))
	}
	rng := rand.New(rand.NewSource(16))
	for capacity := 1; capacity <= 64; capacity++ {
		var gotEv, wantEv []eviction
		got := New(capacity, func(f fingerprint.Fingerprint, v Value, d bool) { gotEv = append(gotEv, eviction{f, v, d}) })
		want := newRef(capacity, func(f fingerprint.Fingerprint, v Value, d bool) { wantEv = append(wantEv, eviction{f, v, d}) })
		space := keys[:capacity*(2+rng.Intn(3))]
		for step := 0; step < steps/64; step++ {
			k, v := space[rng.Intn(len(space))], Value(rng.Intn(4))
			var g, w any
			op := rng.Intn(20)
			switch op {
			case 0, 1, 2:
				gv, gok := got.Get(k)
				wv, wok := want.Get(k)
				g, w = answer{gv, gok}, answer{wv, wok}
			case 3, 4, 5:
				gv, gok := got.GetFast(k)
				wv, wok := want.GetFast(k)
				g, w = answer{gv, gok}, answer{wv, wok}
			case 6, 7, 8, 9:
				g, w = got.Put(k, v), want.Put(k, v)
			case 10, 11, 12:
				g, w = got.PutDirty(k, v), want.PutDirty(k, v)
			case 13, 14, 15, 16:
				g, w = got.Remove(k), want.Remove(k)
			case 17, 18:
				g, w = got.MarkCleanIf(k, v), want.MarkCleanIf(k, v)
			case 19:
				limit, stopAt := 1+rng.Intn(capacity), rng.Intn(capacity+1)
				var gs, ws []visited
				gn := got.ColdDirty(limit, func(f fingerprint.Fingerprint, v Value) bool {
					gs = append(gs, visited{f, v})
					return len(gs) != stopAt
				})
				wn := want.ColdDirty(limit, func(f fingerprint.Fingerprint, v Value) bool {
					ws = append(ws, visited{f, v})
					return len(ws) != stopAt
				})
				g, w = gn, wn
				if !slices.Equal(gs, ws) {
					t.Fatalf("capacity %d step %d: ColdDirty visited %v, reference %v", capacity, step, gs, ws)
				}
			}
			if g != w {
				t.Fatalf("capacity %d step %d: op %d on %s = %v, reference %v", capacity, step, op, k.Short(), g, w)
			}
			if !slices.Equal(gotEv, wantEv) {
				t.Fatalf("capacity %d step %d: evictions %v, reference %v", capacity, step, gotEv, wantEv)
			}
			gotEv, wantEv = gotEv[:0], wantEv[:0]
			if got.Stats() != want.Stats() || got.DirtyLen() != want.dirtyN {
				t.Fatalf("capacity %d step %d: stats %+v dirty %d, reference %+v dirty %d",
					capacity, step, got.Stats(), got.DirtyLen(), want.Stats(), want.dirtyN)
			}
			// Keys is O(n): compare it on a sample of steps, and always on
			// the last.
			if step%16 == 0 || step == steps/64-1 {
				if !slices.Equal(got.keys(), want.Keys()) {
					t.Fatalf("capacity %d step %d: Keys %v, reference %v", capacity, step, got.keys(), want.Keys())
				}
			}
		}
	}
}
