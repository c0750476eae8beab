package core

import (
	"context"
	"sync"
	"testing"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

func newHotPathNode(t *testing.T, cfg NodeConfig) *Node {
	t.Helper()
	if cfg.ID == "" {
		cfg.ID = ring.NodeID("hotpath")
	}
	if cfg.Store == nil {
		cfg.Store = hashdb.CreateMem(nil, hashdb.Options{})
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestHotPathCacheHitStats: lock-free cache hits must keep the Stats
// invariant (per-source counters sum to Lookups) and land under CacheHits.
func TestHotPathCacheHitStats(t *testing.T) {
	n := newHotPathNode(t, NodeConfig{CacheSize: 4096, stripes: 4})
	ctx := context.Background()
	fps := make([]fingerprint.Fingerprint, 64)
	for i := range fps {
		fps[i] = fingerprint.FromUint64(uint64(i))
		if _, err := n.LookupOrInsert(ctx, fps[i], Value(i+1)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	const rounds = 10
	for r := 0; r < rounds; r++ {
		for i, fp := range fps {
			res, err := n.Lookup(ctx, fp)
			if err != nil {
				t.Fatalf("lookup: %v", err)
			}
			if !res.Exists || res.Value != Value(i+1) || res.Source != SourceCache {
				t.Fatalf("lookup %d = %+v; want cache hit with value %d", i, res, i+1)
			}
		}
	}
	st, err := n.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if want := uint64(rounds * len(fps)); st.CacheHits != want {
		t.Fatalf("CacheHits = %d want %d", st.CacheHits, want)
	}
	sum := st.CacheHits + st.BloomShort + st.StoreHits + st.StoreMisses
	if sum != st.Lookups {
		t.Fatalf("sources sum %d != Lookups %d", sum, st.Lookups)
	}
}

// TestHotPathBatchPrepass: a fully cache-resident batch resolves through
// the lock-free prepass with every result a cache hit.
func TestHotPathBatchPrepass(t *testing.T) {
	n := newHotPathNode(t, NodeConfig{CacheSize: 4096, stripes: 4})
	ctx := context.Background()
	pairs := make([]Pair, 128)
	for i := range pairs {
		pairs[i] = Pair{FP: fingerprint.FromUint64(uint64(i)), Val: Value(i + 1)}
	}
	if _, err := n.BatchLookupOrInsert(ctx, pairs); err != nil {
		t.Fatalf("seed batch: %v", err)
	}
	fps := make([]fingerprint.Fingerprint, len(pairs))
	for i := range pairs {
		fps[i] = pairs[i].FP
	}
	rs, err := n.LookupBatch(ctx, fps)
	if err != nil {
		t.Fatalf("LookupBatch: %v", err)
	}
	for i, r := range rs {
		if !r.Exists || r.Value != Value(i+1) || r.Source != SourceCache {
			t.Fatalf("result %d = %+v; want cache hit value %d", i, r, i+1)
		}
	}
	// Mixed batch: half cached, half new — the prepass resolves the cached
	// half, the pipeline the rest, in one call.
	mixed := make([]Pair, 0, len(pairs)*2)
	for i := range pairs {
		mixed = append(mixed, pairs[i], Pair{FP: fingerprint.FromUint64(uint64(1000 + i)), Val: Value(i)})
	}
	mrs, err := n.BatchLookupOrInsert(ctx, mixed)
	if err != nil {
		t.Fatalf("mixed batch: %v", err)
	}
	for i, r := range mrs {
		wantExists := i%2 == 0
		if r.Exists != wantExists {
			t.Fatalf("mixed result %d = %+v; want Exists=%v", i, r, wantExists)
		}
	}
}

// TestHotPathClosedNode: the fast path must not answer from the cache of a
// closed node.
func TestHotPathClosedNode(t *testing.T) {
	n := newHotPathNode(t, NodeConfig{CacheSize: 4096})
	ctx := context.Background()
	fp := fingerprint.FromUint64(3)
	if _, err := n.LookupOrInsert(ctx, fp, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Lookup(ctx, fp); err == nil {
		t.Fatal("Lookup on closed node succeeded via fast path")
	}
}

// TestHotPathConcurrentReadWrite hammers lock-free readers against
// concurrent inserts and removals through the full node API; under -race
// this exercises the publication protocol end to end.
func TestHotPathConcurrentReadWrite(t *testing.T) {
	n := newHotPathNode(t, NodeConfig{CacheSize: 8192, stripes: 4})
	ctx := context.Background()
	const keys = 512
	for i := 0; i < keys; i++ {
		if _, err := n.LookupOrInsert(ctx, fingerprint.FromUint64(uint64(i)), Value(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fp := fingerprint.FromUint64(uint64(i % keys))
				res, err := n.Lookup(ctx, fp)
				if err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				if res.Exists && res.Value != Value(i%keys+1) {
					t.Errorf("lookup %d = %+v", i%keys, res)
					return
				}
			}
		}()
	}
	for i := 0; i < 20_000; i++ {
		k := uint64(i % keys)
		fp := fingerprint.FromUint64(k)
		if i%5 == 4 {
			if _, err := n.Remove(fp); err != nil {
				t.Fatalf("remove: %v", err)
			}
		}
		if _, err := n.LookupOrInsert(ctx, fp, Value(k+1)); err != nil {
			t.Fatalf("reinsert: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAllocCacheHitLookup pins the cache-hit Node.Lookup path at zero
// allocations per operation.
func TestAllocCacheHitLookup(t *testing.T) {
	n := newHotPathNode(t, NodeConfig{CacheSize: 4096})
	ctx := context.Background()
	fp := fingerprint.FromUint64(42)
	if _, err := n.LookupOrInsert(ctx, fp, 7); err != nil {
		t.Fatal(err)
	}
	if res, err := n.Lookup(ctx, fp); err != nil || res.Source != SourceCache {
		t.Fatalf("warmup lookup = %+v, %v; want cache hit", res, err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := n.Lookup(ctx, fp)
		if err != nil || !res.Exists {
			t.Fatal("lookup failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit Lookup allocates %v/op; want 0", allocs)
	}
}
