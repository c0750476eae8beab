package core

import (
	"context"
	"fmt"
	"testing"

	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

// The batch path routes on one snapshot of the routing table and regroups
// the batch in pooled scratch. These tests pin what that buys: a constant
// number of allocations per call. Batches in flight across a membership
// change are chaos rows (chaos_test.go).

// cachedCluster is an in-process cluster whose nodes hold the whole working
// set in their LRU, so a repeated batch is all lock-free cache hits.
func cachedCluster(t testing.TB, nodes int, cfg ClusterConfig) *Cluster {
	t.Helper()
	backends := make([]Backend, nodes)
	for i := range backends {
		n, err := NewNode(NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%d", i)),
			Store:         hashdb.CreateMem(nil, hashdb.Options{}),
			CacheSize:     1 << 13,
			BloomExpected: 1 << 16,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		backends[i] = n
	}
	c, err := NewCluster(cfg, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestAllocClusterBatch: a cache-hit BatchLookupOrInsert allocates per node
// it reaches (a goroutine, the node's result slice) plus the merged result —
// not per pair. sync.Pool drops items at random under -race, so the bound is
// loose; what it must not do is grow with the batch.
func TestAllocClusterBatch(t *testing.T) {
	c := cachedCluster(t, 2, ClusterConfig{})
	ctx := context.Background()
	run := func(n int) float64 {
		pairs := make([]Pair, n)
		for i := range pairs {
			pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i + 1)}
		}
		if _, err := c.BatchLookupOrInsert(ctx, pairs); err != nil {
			t.Fatalf("seed batch: %v", err)
		}
		return testing.AllocsPerRun(50, func() {
			rs, err := c.BatchLookupOrInsert(ctx, pairs)
			if err != nil || len(rs) != n || !rs[n-1].Exists {
				t.Fatalf("batch: %d results, %v", len(rs), err)
			}
		})
	}
	small, large := run(128), run(2048)
	t.Logf("allocs per batch: %v at 128 pairs, %v at 2048", small, large)
	if large > 16 {
		t.Fatalf("a 2048-pair batch allocates %v objects; want a small constant", large)
	}
	if large > small+4 {
		t.Fatalf("allocations grow with the batch: %v at 128 pairs, %v at 2048", small, large)
	}
}

// TestBatchGroupingOrderAndScratchReuse: results come back in input order
// with each fingerprint's own value, duplicates inside a batch resolve in
// input order, and a scratch that just held a bigger batch leaks none of it
// into a smaller one.
func TestBatchGroupingOrderAndScratchReuse(t *testing.T) {
	c := cachedCluster(t, 3, ClusterConfig{})
	ctx := context.Background()
	batch := func(from, n int) []Pair {
		pairs := make([]Pair, n)
		for i := range pairs {
			pairs[i] = Pair{FP: fp(uint64(from + i)), Val: Value(from + i + 1)}
		}
		return pairs
	}
	for round, size := range []int{1500, 7, 1500, 1, 300} {
		pairs := batch(0, size)
		// Repeat the first fingerprint at the end: always a duplicate.
		pairs = append(pairs, Pair{FP: pairs[0].FP, Val: 999999})
		rs, err := c.BatchLookupOrInsert(ctx, pairs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(rs) != len(pairs) {
			t.Fatalf("round %d: %d results for %d pairs", round, len(rs), len(pairs))
		}
		for i, r := range rs {
			wantExists := round > 0 || i == size
			if r.Exists != wantExists {
				t.Fatalf("round %d pair %d: Exists = %v, want %v", round, i, r.Exists, wantExists)
			}
			if want := Value(i%size + 1); r.Exists && r.Value != want {
				t.Fatalf("round %d pair %d: value %d, want %d (another pair's answer)", round, i, r.Value, want)
			}
		}
	}
}
