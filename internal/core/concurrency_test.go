package core

import (
	"context"
	"sync"
	"testing"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

// TestConcurrentLookupStatsConsistency hammers one striped node from many
// goroutines with an overlapping key set and asserts the invariants the
// stripe design must preserve:
//
//   - every lookup is answered by exactly one tier, so the per-source
//     counters sum to Lookups across all stripes;
//   - each unique fingerprint is inserted exactly once (per-fingerprint
//     serialization), never duplicated by a racing pair of lookups;
//   - a duplicate always returns the value the first insert assigned.
//
// Run under -race this also proves the cache/bloom/store sharing is sound.
func TestConcurrentLookupStatsConsistency(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 1 << 12, BloomExpected: 1 << 16})
	if len(n.stripes) < 2 {
		t.Fatalf("default stripe count = %d, want >= 2 for a meaningful test", len(n.stripes))
	}

	const (
		goroutines = 8
		opsPer     = 4000
		uniques    = 3000 // < goroutines*opsPer: heavy cross-goroutine overlap
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := uint64((g*opsPer + i*13) % uniques)
				r, err := n.LookupOrInsert(context.Background(), fp(key), Value(key))
				if err != nil {
					errs <- err
					return
				}
				if r.Exists && r.Value != Value(key) {
					t.Errorf("fp(%d) returned value %d, want %d", key, r.Value, key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("LookupOrInsert: %v", err)
	}

	st, err := n.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Lookups != goroutines*opsPer {
		t.Fatalf("Lookups = %d, want %d", st.Lookups, goroutines*opsPer)
	}
	answered := st.CacheHits + st.BloomShort + st.StoreHits + st.StoreMisses
	if answered != st.Lookups {
		t.Fatalf("tier counters sum to %d (cache %d + bloom %d + store hits %d + store misses %d), want Lookups = %d",
			answered, st.CacheHits, st.BloomShort, st.StoreHits, st.StoreMisses, st.Lookups)
	}
	if st.Inserts != uniques {
		t.Fatalf("Inserts = %d, want exactly %d (one per unique fingerprint)", st.Inserts, uniques)
	}
	if st.StoreEntries != uniques {
		t.Fatalf("StoreEntries = %d, want %d", st.StoreEntries, uniques)
	}
}

// TestConcurrentBatchesAcrossStripes runs overlapping batches from many
// goroutines and verifies the partitioned batch path keeps the same
// exactly-once insert semantics as single lookups.
func TestConcurrentBatchesAcrossStripes(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 1 << 12, BloomExpected: 1 << 16})

	const (
		goroutines = 6
		batches    = 40
		batchSize  = 128
		uniques    = 1000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pairs := make([]Pair, batchSize)
			for r := 0; r < batches; r++ {
				for j := range pairs {
					key := uint64((g + r*batchSize + j*7) % uniques)
					pairs[j] = Pair{FP: fp(key), Val: Value(key)}
				}
				rs, err := n.BatchLookupOrInsert(context.Background(), pairs)
				if err != nil {
					t.Errorf("BatchLookupOrInsert: %v", err)
					return
				}
				for j, r := range rs {
					if r.Exists && r.Value != pairs[j].Val {
						t.Errorf("batch item %d: value %d, want %d", j, r.Value, pairs[j].Val)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st, err := n.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Inserts != uniques {
		t.Fatalf("Inserts = %d, want %d", st.Inserts, uniques)
	}
	if got := st.CacheHits + st.BloomShort + st.StoreHits + st.StoreMisses; got != st.Lookups {
		t.Fatalf("tier counters sum to %d, want Lookups = %d", got, st.Lookups)
	}
	if st.StoreEntries != uniques {
		t.Fatalf("StoreEntries = %d, want %d", st.StoreEntries, uniques)
	}
}

// TestLookupBatchReadOnly verifies the read-only batch path: it partitions
// like BatchLookupOrInsert but never creates entries.
func TestLookupBatchReadOnly(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 64})
	for i := uint64(0); i < 10; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	query := make([]fingerprint.Fingerprint, 20)
	for i := range query {
		query[i] = fp(uint64(i))
	}
	rs, err := n.LookupBatch(context.Background(), query)
	if err != nil {
		t.Fatalf("LookupBatch: %v", err)
	}
	for i, r := range rs {
		if i < 10 && (!r.Exists || r.Value != Value(i)) {
			t.Fatalf("seeded item %d = %+v, want exists value %d", i, r, i)
		}
		if i >= 10 && r.Exists {
			t.Fatalf("absent item %d reported as existing", i)
		}
	}
	st, _ := n.Stats(context.Background())
	if st.Inserts != 10 {
		t.Fatalf("Inserts = %d after read-only batch, want 10", st.Inserts)
	}
}

// TestWriteBackConcurrentDestage drives a small write-back cache hard
// enough to destage continuously and checks no entry is lost between the
// cache and the store.
func TestWriteBackConcurrentDestage(t *testing.T) {
	store := hashdb.NewMemStore()
	n := newMemNode(t, NodeConfig{Store: store, CacheSize: 64, WriteBack: true, BloomExpected: 1 << 16})

	const (
		goroutines = 8
		uniques    = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < uniques; i++ {
				key := uint64((i*goroutines + g) % uniques)
				if _, err := n.LookupOrInsert(context.Background(), fp(key), Value(key)); err != nil {
					t.Errorf("LookupOrInsert: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if store.Len() != uniques {
		t.Fatalf("store has %d entries after flush, want %d", store.Len(), uniques)
	}
	for i := uint64(0); i < uniques; i++ {
		v, ok, err := store.Get(fp(i))
		if err != nil || !ok || v != hashdb.Value(i) {
			t.Fatalf("entry %d = (%v,%v,%v) after concurrent write-back", i, v, ok, err)
		}
	}
}
