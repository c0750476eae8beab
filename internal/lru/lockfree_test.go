package lru

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"shhc/internal/fingerprint"
)

// TestGetFastHitPath: GetFast sees what Put published, misses what Remove
// unpublished, and leaves counting its hits to the caller.
func TestGetFastHitPath(t *testing.T) {
	c := New(8, nil)
	fp := fingerprint.FromUint64(1)
	if _, ok := c.GetFast(fp); ok {
		t.Fatal("GetFast hit on empty cache")
	}
	c.Put(fp, 42)
	v, ok := c.GetFast(fp)
	if !ok || v != 42 {
		t.Fatalf("GetFast = %v,%v want 42,true", v, ok)
	}
	c.Put(fp, 43) // in-place update, same entry
	if v, ok := c.GetFast(fp); !ok || v != 43 {
		t.Fatalf("GetFast after update = %v,%v want 43,true", v, ok)
	}
	c.Remove(fp)
	if _, ok := c.GetFast(fp); ok {
		t.Fatal("GetFast hit after Remove")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Stats = %+v: GetFast must count nothing (the caller counts its hits)", st)
	}
}

// TestGetFastReinsert: a remove-then-reinsert of the same fingerprint must
// serve the new value, never the dead entry's.
func TestGetFastReinsert(t *testing.T) {
	c := New(4, nil)
	fp := fingerprint.FromUint64(7)
	c.Put(fp, 1)
	c.Remove(fp)
	c.Put(fp, 2)
	if v, ok := c.GetFast(fp); !ok || v != 2 {
		t.Fatalf("GetFast after reinsert = %v,%v want 2,true", v, ok)
	}
}

// TestSecondChanceEviction: an entry touched only by GetFast survives one
// eviction pass (its clock bit buys a second chance), while untouched
// entries go first — and with no fast reads at all, eviction stays exact
// LRU so the deterministic crash-harness assumptions still hold.
func TestSecondChanceEviction(t *testing.T) {
	var evicted []fingerprint.Fingerprint
	c := New(3, func(fp fingerprint.Fingerprint, _ Value, _ bool) {
		evicted = append(evicted, fp)
	})
	a, b, d := fingerprint.FromUint64(1), fingerprint.FromUint64(2), fingerprint.FromUint64(3)
	c.Put(a, 1)
	c.Put(b, 2)
	c.Put(d, 3)
	// Touch the LRU entry (a) via the lock-free path only.
	if _, ok := c.GetFast(a); !ok {
		t.Fatal("GetFast(a) missed")
	}
	c.Put(fingerprint.FromUint64(4), 4)
	if len(evicted) != 1 || evicted[0] != b {
		t.Fatalf("evicted %v; want [b]: clock bit should spare a and evict b", evicted)
	}
	if _, ok := c.peek(a); !ok {
		t.Fatal("a evicted despite second chance")
	}
	// With the bit consumed, a is now MRU; next eviction is exact LRU (d).
	c.Put(fingerprint.FromUint64(5), 5)
	if len(evicted) != 2 || evicted[1] != d {
		t.Fatalf("second eviction %v; want d", evicted)
	}
}

// TestSecondChanceAllReferenced: when every entry's clock bit is set the
// sweep must still terminate and evict something.
func TestSecondChanceAllReferenced(t *testing.T) {
	c := New(3, nil)
	for i := 1; i <= 3; i++ {
		c.Put(fingerprint.FromUint64(uint64(i)), Value(i))
	}
	for i := 1; i <= 3; i++ {
		if _, ok := c.GetFast(fingerprint.FromUint64(uint64(i))); !ok {
			t.Fatalf("GetFast(%d) missed", i)
		}
	}
	c.Put(fingerprint.FromUint64(9), 9)
	if c.n != 3 {
		t.Fatalf("Len = %d want 3", c.n)
	}
}

// TestGetFastConcurrent hammers lock-free readers against a serialized
// mutator doing puts, updates, removals, and evictions. Run under -race
// this is the memory-model proof for the published-entry protocol; the
// assertion is that a hit never returns a value the fingerprint never had.
func TestGetFastConcurrent(t *testing.T) {
	s := NewStriped(4, 256, nil)
	const keys = 512
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(i)%keys + seed
				fp := fingerprint.FromUint64(k % keys)
				if v, ok := s.GetFast(fp); ok && uint64(v) != k%keys {
					t.Errorf("GetFast(%d) = %d", k%keys, v)
					return
				}
			}
		}(uint64(r))
	}
	for i := 0; i < 50_000; i++ {
		k := uint64(i) % keys
		fp := fingerprint.FromUint64(k)
		switch i % 7 {
		case 5:
			s.Remove(fp)
		case 6:
			s.Get(fp)
		default:
			s.Put(fp, Value(k))
		}
	}
	close(stop)
	wg.Wait()
}

// TestGetFastNeverSeesRecycledSlot: with eight slots and sixty-four keys
// nearly every Put rewrites a slot some reader may be standing on. Values
// are a function of the fingerprint, so a reader that took the fingerprint
// from one incarnation of a slot and the value from another would return a
// value its fingerprint never had. Under -race this is also the proof that
// the rewrite and the version check share no unsynchronized memory.
func TestGetFastNeverSeesRecycledSlot(t *testing.T) {
	const keys = 64
	valueOf := func(k uint64) Value { return Value(k*2654435761 + 1) }
	var fps [keys]fingerprint.Fingerprint
	for k := range fps {
		fps[k] = fingerprint.FromUint64(uint64(k))
	}
	c := New(8, nil)
	var (
		wg   sync.WaitGroup
		hits atomic.Int64
		stop atomic.Bool
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := uint64(rng.Intn(keys))
				if v, ok := c.GetFast(fps[k]); ok {
					hits.Add(1)
					if v != valueOf(k) {
						t.Errorf("GetFast(key %d) = %d, want %d: value of a recycled slot", k, v, valueOf(k))
						return
					}
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 100_000; i++ {
		k := uint64(rng.Intn(keys))
		if i%16 == 15 {
			c.Remove(fps[k]) // slots also come back through the free list
		} else {
			c.Put(fps[k], valueOf(k))
		}
	}
	stop.Store(true)
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("no reader ever hit: the test exercised nothing")
	}
}

// TestAllocGetFast pins the lock-free hit path at zero allocations.
func TestAllocGetFast(t *testing.T) {
	s := NewStriped(4, 1024, nil)
	fp := fingerprint.FromUint64(99)
	s.Put(fp, 7)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := s.GetFast(fp); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("GetFast allocates %v/op; want 0", allocs)
	}
}
