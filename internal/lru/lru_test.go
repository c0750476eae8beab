package lru

import (
	"slices"
	"testing"
	"testing/quick"

	"shhc/internal/fingerprint"
)

func fp(i uint64) fingerprint.Fingerprint { return fingerprint.FromUint64(i) }

// peek reads fp's value without touching its recency or the counters.
func (c *Cache) peek(fp fingerprint.Fingerprint) (Value, bool) {
	if i := c.find(fp); i != 0 {
		return Value(c.slab[i].val.Load()), true
	}
	return 0, false
}

// keys lists the cached fingerprints from most to least recently used.
func (c *Cache) keys() []fingerprint.Fingerprint {
	var keys []fingerprint.Fingerprint
	for i := c.head; i != 0; i = c.slab[i].next {
		keys = append(keys, c.slab[i].fingerprint())
	}
	return keys
}

func TestGetPut(t *testing.T) {
	c := New(4, nil)
	c.Put(fp(1), 100)
	if v, ok := c.Get(fp(1)); !ok || v != 100 {
		t.Fatalf("Get = (%v, %v), want (100, true)", v, ok)
	}
	if _, ok := c.Get(fp(2)); ok {
		t.Fatal("Get of absent key succeeded")
	}
}

func TestEvictionOrder(t *testing.T) {
	var evicted []fingerprint.Fingerprint
	c := New(3, func(f fingerprint.Fingerprint, _ Value, _ bool) {
		evicted = append(evicted, f)
	})
	c.Put(fp(1), 1)
	c.Put(fp(2), 2)
	c.Put(fp(3), 3)
	c.Get(fp(1)) // promote 1; LRU order now 2,3,1
	c.Put(fp(4), 4)
	c.Put(fp(5), 5)

	want := []fingerprint.Fingerprint{fp(2), fp(3)}
	if len(evicted) != len(want) {
		t.Fatalf("evicted %d entries, want %d", len(evicted), len(want))
	}
	for i := range want {
		if evicted[i] != want[i] {
			t.Fatalf("eviction[%d] = %s, want %s", i, evicted[i].Short(), want[i].Short())
		}
	}
	if _, ok := c.peek(fp(1)); !ok {
		t.Fatal("promoted entry 1 was evicted")
	}
}

func TestUpdateExistingDoesNotEvict(t *testing.T) {
	c := New(2, nil)
	c.Put(fp(1), 1)
	c.Put(fp(2), 2)
	if evicted := c.Put(fp(1), 10); evicted {
		t.Fatal("updating existing key reported eviction")
	}
	if v, _ := c.Get(fp(1)); v != 10 {
		t.Fatalf("updated value = %v, want 10", v)
	}
	if c.n != 2 {
		t.Fatalf("Len = %d, want 2", c.n)
	}
}

func TestDirtyTracking(t *testing.T) {
	var gotDirty []bool
	c := New(1, func(_ fingerprint.Fingerprint, _ Value, dirty bool) {
		gotDirty = append(gotDirty, dirty)
	})
	c.PutDirty(fp(1), 1)
	c.Put(fp(2), 2) // evicts dirty 1
	c.PutDirty(fp(3), 3)
	if !c.MarkCleanIf(fp(3), 3) {
		t.Fatal("MarkCleanIf with the current value did not clean the entry")
	}
	c.Put(fp(4), 4) // evicts fp(3), which MarkCleanIf made clean

	// Evictions: fp(1) dirty, fp(2) clean, fp(3) cleaned via MarkCleanIf.
	want := []bool{true, false, false}
	if len(gotDirty) != len(want) {
		t.Fatalf("dirty flags = %v, want %v", gotDirty, want)
	}
	for i := range want {
		if gotDirty[i] != want[i] {
			t.Fatalf("dirty flags = %v, want %v", gotDirty, want)
		}
	}
}

// TestMarkCleanIfChecksValue: an entry re-dirtied with a newer value while
// the owner was persisting the old one must stay dirty, and DirtyLen must
// follow every transition of the flag.
func TestMarkCleanIfChecksValue(t *testing.T) {
	var dirtyAtEvict []bool
	c := New(2, func(_ fingerprint.Fingerprint, _ Value, dirty bool) {
		dirtyAtEvict = append(dirtyAtEvict, dirty)
	})
	c.PutDirty(fp(1), 1)
	c.PutDirty(fp(2), 2)
	if c.DirtyLen() != 2 {
		t.Fatalf("DirtyLen = %d, want 2", c.DirtyLen())
	}
	c.PutDirty(fp(1), 11) // re-dirtied while the write of 1 is in flight
	if c.MarkCleanIf(fp(1), 1) {
		t.Fatal("MarkCleanIf cleaned an entry whose value had changed")
	}
	if c.MarkCleanIf(fp(7), 7) {
		t.Fatal("MarkCleanIf reported an absent entry clean")
	}
	if !c.MarkCleanIf(fp(2), 2) || c.DirtyLen() != 1 {
		t.Fatalf("after cleaning fp(2): DirtyLen = %d, want 1", c.DirtyLen())
	}
	if !c.MarkCleanIf(fp(2), 2) || c.DirtyLen() != 1 {
		t.Fatalf("cleaning a clean entry moved DirtyLen to %d", c.DirtyLen())
	}
	c.Put(fp(3), 3) // evicts fp(2) (clean); fp(1) was promoted by its update
	c.Put(fp(4), 4) // evicts fp(1), still dirty
	if len(dirtyAtEvict) != 2 || dirtyAtEvict[0] || !dirtyAtEvict[1] {
		t.Fatalf("dirty flags at eviction = %v, want [false true]", dirtyAtEvict)
	}
	if c.DirtyLen() != 0 {
		t.Fatalf("DirtyLen after evicting the last dirty entry = %d, want 0", c.DirtyLen())
	}
	c.PutDirty(fp(5), 5)
	c.Remove(fp(5))
	if c.DirtyLen() != 0 {
		t.Fatalf("DirtyLen after Remove of a dirty entry = %d, want 0", c.DirtyLen())
	}
}

// TestColdDirtyVisitsColdestFirst: the scan skips clean entries, starts at
// the LRU end, and honors both the limit and an early stop.
func TestColdDirtyVisitsColdestFirst(t *testing.T) {
	c := New(8, nil)
	for i := uint64(1); i <= 6; i++ {
		if i%2 == 0 {
			c.Put(fp(i), Value(i))
		} else {
			c.PutDirty(fp(i), Value(i))
		}
	}
	collect := func(limit, stopAfter int) []Value {
		var got []Value
		c.ColdDirty(limit, func(_ fingerprint.Fingerprint, v Value) bool {
			got = append(got, v)
			return len(got) < stopAfter
		})
		return got
	}
	for _, tc := range []struct {
		limit, stopAfter int
		want             []Value
	}{
		{10, 10, []Value{1, 3, 5}},
		{2, 10, []Value{1, 3}},
		{10, 1, []Value{1}},
		{0, 10, nil},
	} {
		got := collect(tc.limit, tc.stopAfter)
		if len(got) != len(tc.want) {
			t.Fatalf("ColdDirty(limit %d, stop after %d) = %v, want %v", tc.limit, tc.stopAfter, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("ColdDirty(limit %d, stop after %d) = %v, want %v", tc.limit, tc.stopAfter, got, tc.want)
			}
		}
	}
}

func TestDirtyStickyAcrossCleanUpdate(t *testing.T) {
	var dirtyAtEvict bool
	c := New(1, func(_ fingerprint.Fingerprint, _ Value, dirty bool) { dirtyAtEvict = dirty })
	c.PutDirty(fp(1), 1)
	c.Put(fp(1), 2) // clean update must not clear dirtiness
	c.Put(fp(9), 9) // evict
	if !dirtyAtEvict {
		t.Fatal("dirty flag was lost on clean update of a dirty entry")
	}
}

func TestRemove(t *testing.T) {
	evictions := 0
	c := New(2, func(fingerprint.Fingerprint, Value, bool) { evictions++ })
	c.Put(fp(1), 1)
	if !c.Remove(fp(1)) {
		t.Fatal("Remove of present key = false")
	}
	if c.Remove(fp(1)) {
		t.Fatal("Remove of absent key = true")
	}
	if evictions != 0 {
		t.Fatal("Remove must not fire the eviction callback")
	}
	if c.n != 0 {
		t.Fatalf("Len = %d, want 0", c.n)
	}
}

// TestOldestAndKeys: a Get moves its key to the front of the recency
// order, so the key left at the back is the oldest and the next to go.
func TestOldestAndKeys(t *testing.T) {
	c := New(3, nil)
	if keys := c.keys(); len(keys) != 0 {
		t.Fatalf("keys of empty cache = %v", keys)
	}
	c.Put(fp(1), 1)
	c.Put(fp(2), 2)
	c.Put(fp(3), 3)
	c.Get(fp(1))
	keys := c.keys()
	want := []fingerprint.Fingerprint{fp(1), fp(3), fp(2)}
	if !slices.Equal(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	c.Put(fp(4), 4)
	if _, ok := c.peek(fp(2)); ok {
		t.Fatalf("oldest key %s survived an insert into a full cache", fp(2).Short())
	}
}

func TestStats(t *testing.T) {
	c := New(2, nil)
	c.Put(fp(1), 1)
	c.Get(fp(1))
	c.Get(fp(2))
	c.Put(fp(2), 2)
	c.Put(fp(3), 3)

	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 eviction", s)
	}
}

func TestPanicOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, nil)
}

// Property: the cache never exceeds capacity, and a Get immediately after
// Put returns the value, for arbitrary operation sequences.
func TestQuickCapacityAndCoherence(t *testing.T) {
	f := func(ops []uint16, capSeed uint8) bool {
		capacity := int(capSeed%32) + 1
		c := New(capacity, nil)
		for _, op := range ops {
			key := fp(uint64(op % 64))
			if op%3 == 0 {
				c.Get(key)
			} else {
				c.Put(key, Value(op))
				if v, ok := c.peek(key); !ok || v != Value(op) {
					return false
				}
			}
			if c.n > capacity {
				return false
			}
		}
		return len(c.keys()) == c.n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
