package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

// The batch path routes on one snapshot of the routing table and regroups
// the batch in pooled scratch. These tests pin the two things that buys and
// the one thing it must not cost: a constant number of allocations per call,
// and owner-move reconciliation that still works when JoinNode/DrainNode
// swap the table under batches in flight.

// cachedCluster is an in-process cluster whose nodes hold the whole working
// set in their LRU, so a repeated batch is all lock-free cache hits.
func cachedCluster(t testing.TB, nodes int, cfg ClusterConfig) *Cluster {
	t.Helper()
	backends := make([]Backend, nodes)
	for i := range backends {
		n, err := NewNode(NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%d", i)),
			Store:         hashdb.NewMemStore(nil),
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

// TestBatchesDuringJoinNode runs batches of seeded fingerprints while
// JoinNode migrates entries under them and flips the routing table. A batch
// that routed on the old table asks the old owner, which may already have
// handed the entry over; reconciliation against the new owner must turn that
// miss back into the duplicate it is. No error, and no seeded fingerprint
// ever reported new.
func TestBatchesDuringJoinNode(t *testing.T) {
	c := newTestCluster(t, 3, ClusterConfig{})
	ctx := context.Background()
	const n = 4096
	seed := make([]Pair, n)
	for i := range seed {
		seed[i] = Pair{FP: fp(uint64(i)), Val: Value(i)}
	}
	if _, err := c.BatchLookupOrInsert(ctx, seed); err != nil {
		t.Fatalf("seed: %v", err)
	}

	var (
		wg        sync.WaitGroup
		ghostNews atomic.Uint64
	)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pairs := make([]Pair, 256)
			for at := g * 97; ; at += len(pairs) {
				select {
				case <-stop:
					return
				default:
				}
				for j := range pairs {
					// A value no seeded entry stores: reconciliation tells
					// a migrated duplicate from its own insert by value.
					pairs[j] = Pair{FP: fp(uint64((at + j) % n)), Val: Value(n)}
				}
				rs, err := c.BatchLookupOrInsert(ctx, pairs)
				if err != nil {
					t.Errorf("batch during join: %v", err)
					return
				}
				for _, r := range rs {
					if !r.Exists {
						ghostNews.Add(1)
					}
				}
			}
		}(g)
	}
	for round := 0; round < 3; round++ {
		if _, err := c.JoinNode(ctx, newNamedNode(t, fmt.Sprintf("joiner-%d", round))); err != nil {
			t.Fatalf("JoinNode under batches: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if g := ghostNews.Load(); g > 0 {
		t.Fatalf("%d seeded fingerprints reported as new while JoinNode swapped the table", g)
	}
	rs, err := c.BatchLookupOrInsert(ctx, seed)
	if err != nil {
		t.Fatalf("final batch: %v", err)
	}
	for i, r := range rs {
		if !r.Exists {
			t.Fatalf("fingerprint %d lost by the joins", i)
		}
	}
}

// TestFreshBatchesNeverDuplicateDuringJoinDrain is the other direction:
// while JoinNode/DrainNode churn swaps the table continuously, a batch of
// fingerprints seen for the very first time must come back all new. A
// reconciliation that probed again without checking that the owner really
// moved would read back the batch's own inserts as duplicates, and the
// chunks would never be uploaded.
func TestFreshBatchesNeverDuplicateDuringJoinDrain(t *testing.T) {
	c := newTestCluster(t, 3, ClusterConfig{})
	ctx := context.Background()
	stop := make(chan struct{})
	churnDone := make(chan error, 1)
	go func() {
		// Drained nodes stay open until the batches finish: one that routed
		// just before the drain may still be asking the node.
		var drained []*Node
		defer func() {
			for _, n := range drained {
				n.Close()
			}
		}()
		for round := 0; ; round++ {
			select {
			case <-stop:
				churnDone <- nil
				return
			default:
			}
			scratch, err := NewNode(NodeConfig{
				ID:            ring.NodeID(fmt.Sprintf("churn-%d", round)),
				Store:         hashdb.NewMemStore(nil),
				CacheSize:     128,
				BloomExpected: 1 << 16,
			})
			if err != nil {
				churnDone <- err
				return
			}
			if _, err := c.JoinNode(ctx, scratch); err != nil {
				churnDone <- err
				return
			}
			if _, err := c.DrainNode(ctx, scratch.ID()); err != nil {
				churnDone <- err
				return
			}
			drained = append(drained, scratch)
		}
	}()

	var (
		next         atomic.Uint64
		wg           sync.WaitGroup
		spuriousDups atomic.Uint64
	)
	next.Store(1 << 20)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pairs := make([]Pair, 128)
			for k := 0; k < 24; k++ {
				base := next.Add(uint64(len(pairs)))
				for j := range pairs {
					pairs[j] = Pair{FP: fp(base + uint64(j)), Val: Value(base + uint64(j))}
				}
				rs, err := c.BatchLookupOrInsert(ctx, pairs)
				if err != nil {
					t.Errorf("batch during churn: %v", err)
					return
				}
				for _, r := range rs {
					if r.Exists {
						spuriousDups.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-churnDone; err != nil {
		t.Fatalf("membership churn: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if d := spuriousDups.Load(); d > 0 {
		t.Fatalf("%d fresh fingerprints reported as duplicates while the table was swapped (chunks would never be uploaded)", d)
	}
}
