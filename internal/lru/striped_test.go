package lru

import (
	"sync"
	"testing"

	"shhc/internal/fingerprint"
)

func TestStripedSingleStripeIsExactLRU(t *testing.T) {
	s := NewStriped(1, 2, nil)
	if len(s.stripes) != 1 {
		t.Fatalf("Stripes() = %d, want 1", len(s.stripes))
	}
	s.Put(fp(1), 1)
	s.Put(fp(2), 2)
	s.Put(fp(3), 3) // evicts fp(1)
	if _, ok := s.Get(fp(1)); ok {
		t.Fatal("fp(1) survived eviction in a capacity-2 single-stripe cache")
	}
	if v, ok := s.Get(fp(3)); !ok || v != 3 {
		t.Fatalf("Get(fp(3)) = (%v,%v), want (3,true)", v, ok)
	}
}

func TestStripedClampsStripesToCapacity(t *testing.T) {
	s := NewStriped(16, 3, nil)
	if len(s.stripes) > 3 {
		t.Fatalf("Stripes() = %d, want <= capacity 3", len(s.stripes))
	}
	if len(s.stripes)&(len(s.stripes)-1) != 0 {
		t.Fatalf("Stripes() = %d, want a power of two", len(s.stripes))
	}
	if s.Capacity() != 3 {
		t.Fatalf("Capacity() = %d, want 3", s.Capacity())
	}
}

func TestStripedFingerprintAlwaysSameStripe(t *testing.T) {
	s := NewStriped(8, 64, nil)
	for i := uint64(0); i < 100; i++ {
		a, b := s.index(fp(i)), s.index(fp(i))
		if a != b {
			t.Fatalf("stripe of fp(%d) unstable: %d then %d", i, a, b)
		}
		if a < 0 || a >= len(s.stripes) {
			t.Fatalf("stripe of fp(%d) = %d out of range", i, a)
		}
	}
}

func TestStripedDirtyEvictionCallback(t *testing.T) {
	var mu sync.Mutex
	destaged := map[fingerprint.Fingerprint]Value{}
	s := NewStriped(4, 4, func(f fingerprint.Fingerprint, v Value, dirty bool) {
		if dirty {
			mu.Lock()
			destaged[f] = v
			mu.Unlock()
		}
	})
	// Overfill: every stripe holds 1 entry, so each stripe's second insert
	// destages its first.
	const n = 32
	for i := uint64(0); i < n; i++ {
		s.PutDirty(fp(i), Value(i))
	}
	if s.Stats().Len != s.Capacity() {
		t.Fatalf("Len() = %d, want full capacity %d", s.Stats().Len, s.Capacity())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(destaged)+s.Stats().Len != n {
		t.Fatalf("destaged %d + cached %d != inserted %d", len(destaged), s.Stats().Len, n)
	}
	for f, v := range destaged {
		if Value(fpIndex(t, f)) != v {
			t.Fatalf("destaged %s with value %d", f.Short(), v)
		}
	}
}

// fpIndex recovers i from fp(i) by brute force (test-sized spaces only).
func fpIndex(t *testing.T, f fingerprint.Fingerprint) uint64 {
	t.Helper()
	for i := uint64(0); i < 1000; i++ {
		if fp(i) == f {
			return i
		}
	}
	t.Fatalf("unknown fingerprint %s", f.Short())
	return 0
}

func TestStripedConcurrentCoherence(t *testing.T) {
	s := NewStriped(8, 256, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				f := fp(i % 512)
				if v, ok := s.Get(f); ok && v != Value(i%512) {
					t.Errorf("Get(%s) = %d, want %d", f.Short(), v, i%512)
					return
				}
				s.Put(f, Value(i%512))
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Len > st.Capacity {
		t.Fatalf("Len %d exceeds capacity %d", st.Len, st.Capacity)
	}
	if st.Hits+st.Misses != 8*2000 {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, 8*2000)
	}
}

// TestStripedColdDirtySkipsBusyStripe: the scan must not wait for a stripe
// lock — an eviction callback can hold one for as long as its owner applies
// backpressure — and must still visit every other stripe's dirty entries.
func TestStripedColdDirtySkipsBusyStripe(t *testing.T) {
	s := NewStriped(4, 64, nil)
	for i := uint64(0); i < 32; i++ {
		s.PutDirty(fp(i), Value(i))
	}
	if s.DirtyLen() != 32 {
		t.Fatalf("DirtyLen = %d, want 32", s.DirtyLen())
	}
	busy := s.index(fp(0))
	inBusy := 0
	for i := uint64(0); i < 32; i++ {
		if s.index(fp(i)) == busy {
			inBusy++
		}
	}
	s.stripes[busy].mu.Lock()
	visited := make(map[fingerprint.Fingerprint]bool)
	n := s.ColdDirty(1<<10, func(f fingerprint.Fingerprint, _ Value) bool {
		if s.index(f) == busy {
			t.Errorf("visited %s in the locked stripe", f.Short())
		}
		visited[f] = true
		return true
	})
	s.stripes[busy].mu.Unlock()
	if n != 32-inBusy || len(visited) != n {
		t.Fatalf("visited %d (%d distinct) with one stripe busy, want %d", n, len(visited), 32-inBusy)
	}
	if n := s.ColdDirty(1<<10, func(fingerprint.Fingerprint, Value) bool { return true }); n != 32 {
		t.Fatalf("visited %d with no stripe busy, want 32", n)
	}
	s.stripes[busy].mu.Lock()
	if s.TryMarkCleanIf(fp(0), 0) {
		t.Fatal("TryMarkCleanIf reported a locked stripe examined")
	}
	s.stripes[busy].mu.Unlock()
	for f := range visited {
		if !s.TryMarkCleanIf(f, s.mustPeek(t, f)) {
			t.Fatalf("TryMarkCleanIf(%s) found its idle stripe busy", f.Short())
		}
	}
	if s.DirtyLen() != inBusy {
		t.Fatalf("DirtyLen after cleaning the visited entries = %d, want %d", s.DirtyLen(), inBusy)
	}
}

// index returns the position of fp's stripe.
func (s *Striped) index(fp fingerprint.Fingerprint) int {
	for i := range s.stripes {
		if &s.stripes[i] == s.stripe(fp) {
			return i
		}
	}
	return -1
}

func (s *Striped) mustPeek(t *testing.T, f fingerprint.Fingerprint) Value {
	t.Helper()
	st := s.stripe(f)
	st.mu.Lock()
	v, ok := st.c.peek(f)
	st.mu.Unlock()
	if !ok {
		t.Fatalf("%s: not cached", f.Short())
	}
	return v
}
