package core

import (
	"context"
	"fmt"
	"testing"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

func newNamedNode(t *testing.T, id string) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		ID:            ring.NodeID(id),
		Store:         hashdb.NewMemStore(nil),
		CacheSize:     128,
		BloomExpected: 1 << 16,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	return n
}

func TestNodeEntriesAndRemove(t *testing.T) {
	n := newNamedNode(t, "m")
	defer n.Close()
	for i := uint64(0); i < 100; i++ {
		n.Insert(context.Background(), fp(i), Value(i))
	}
	seen := map[fingerprint.Fingerprint]Value{}
	err := n.Entries(context.Background(), func(f fingerprint.Fingerprint, v Value) bool {
		seen[f] = v
		return true
	})
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if len(seen) != 100 {
		t.Fatalf("Entries visited %d, want 100", len(seen))
	}
	removed, err := n.Remove(fp(5))
	if err != nil || !removed {
		t.Fatalf("Remove = (%v, %v)", removed, err)
	}
	if removed, _ := n.Remove(fp(5)); removed {
		t.Fatal("double Remove reported true")
	}
	r, _ := n.Lookup(context.Background(), fp(5))
	if r.Exists {
		t.Fatal("removed fingerprint still found")
	}
}

func TestEntriesIncludesWriteBackState(t *testing.T) {
	store := hashdb.NewMemStore(nil)
	n, err := NewNode(NodeConfig{ID: "wb", Store: store, CacheSize: 1024, WriteBack: true, BloomExpected: 4096})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	for i := uint64(0); i < 50; i++ {
		n.LookupOrInsert(context.Background(), fp(i), Value(i))
	}
	count := 0
	if err := n.Entries(context.Background(), func(fingerprint.Fingerprint, Value) bool { count++; return true }); err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if count != 50 {
		t.Fatalf("Entries visited %d dirty-cached inserts, want 50", count)
	}
}

func TestRebalanceAfterAddNode(t *testing.T) {
	nodes := make([]*Node, 3)
	backends := make([]Backend, 3)
	for i := range nodes {
		nodes[i] = newNamedNode(t, fmt.Sprintf("node-%d", i))
		backends[i] = nodes[i]
	}
	c, err := NewCluster(ClusterConfig{}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	const n = 3000
	for i := uint64(0); i < n; i++ {
		if _, err := c.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
			t.Fatalf("LookupOrInsert: %v", err)
		}
	}

	extra := newNamedNode(t, "node-extra")
	if err := c.AddNode(extra); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	stats, err := c.Rebalance(context.Background())
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if stats.Scanned < n {
		t.Fatalf("Scanned = %d, want >= %d", stats.Scanned, n)
	}
	// With 4 nodes, ~1/4 of keys should have moved to the new node.
	if stats.Moved < n/10 || stats.Moved > n/2 {
		t.Fatalf("Moved = %d, want roughly n/4 = %d", stats.Moved, n/4)
	}

	// Every fingerprint must be owned-and-stored: look it up directly on
	// its owner node.
	byID := map[ring.NodeID]*Node{}
	for _, node := range nodes {
		byID[node.ID()] = node
	}
	byID[extra.ID()] = extra
	for i := uint64(0); i < n; i++ {
		owner, err := c.Owner(fp(i))
		if err != nil {
			t.Fatalf("Owner: %v", err)
		}
		r, err := byID[owner].Lookup(context.Background(), fp(i))
		if err != nil {
			t.Fatalf("owner lookup: %v", err)
		}
		if !r.Exists {
			t.Fatalf("fingerprint %d not on its owner %s after rebalance", i, owner)
		}
		if r.Value != Value(i) {
			t.Fatalf("fingerprint %d value = %d after move, want %d", i, r.Value, i)
		}
	}
	// The new node actually holds entries.
	st, _ := extra.Stats(context.Background())
	if st.StoreEntries == 0 {
		t.Fatal("new node holds nothing after rebalance")
	}
	// Cluster-level dedup still intact: nothing re-inserted.
	for i := uint64(0); i < n; i++ {
		r, err := c.LookupOrInsert(context.Background(), fp(i), 999)
		if err != nil {
			t.Fatalf("post-rebalance LookupOrInsert: %v", err)
		}
		if !r.Exists {
			t.Fatalf("fingerprint %d lost by rebalance", i)
		}
	}
}

func TestRebalanceNoMovesWhenStable(t *testing.T) {
	c := newTestCluster(t, 3, ClusterConfig{})
	for i := uint64(0); i < 500; i++ {
		c.LookupOrInsert(context.Background(), fp(i), Value(i))
	}
	stats, err := c.Rebalance(context.Background())
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if stats.Moved != 0 {
		t.Fatalf("stable cluster moved %d entries, want 0", stats.Moved)
	}
}

func TestDrainNode(t *testing.T) {
	nodes := make([]*Node, 3)
	backends := make([]Backend, 3)
	for i := range nodes {
		nodes[i] = newNamedNode(t, fmt.Sprintf("node-%d", i))
		backends[i] = nodes[i]
	}
	c, err := NewCluster(ClusterConfig{}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	const n = 2000
	for i := uint64(0); i < n; i++ {
		c.LookupOrInsert(context.Background(), fp(i), Value(i))
	}
	victimStats, _ := nodes[1].Stats(context.Background())
	if victimStats.StoreEntries == 0 {
		t.Fatal("victim node empty before drain; test is vacuous")
	}

	stats, err := c.DrainNode(context.Background(), "node-1")
	if err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if stats.Moved != victimStats.StoreEntries {
		t.Fatalf("Moved = %d, want all %d victim entries", stats.Moved, victimStats.StoreEntries)
	}
	if c.Size() != 2 {
		t.Fatalf("Size = %d after drain, want 2", c.Size())
	}

	// All fingerprints still dedup correctly through the smaller cluster.
	for i := uint64(0); i < n; i++ {
		r, err := c.LookupOrInsert(context.Background(), fp(i), 999)
		if err != nil {
			t.Fatalf("LookupOrInsert after drain: %v", err)
		}
		if !r.Exists {
			t.Fatalf("fingerprint %d lost by drain", i)
		}
	}
	// The drained node is empty and can be closed by its owner.
	drained, _ := nodes[1].Stats(context.Background())
	if drained.StoreEntries != 0 {
		t.Fatalf("drained node still holds %d entries", drained.StoreEntries)
	}
	nodes[1].Close()
}

// Draining a node that holds a key as a secondary replica must not copy its
// entry over the primary's: the primary's value is the one lookups were
// answered from. The secondary's entry is made to differ so an overwrite
// shows.
func TestDrainSecondaryKeepsPrimaryValue(t *testing.T) {
	ctx := context.Background()
	nodes := make([]*Node, 3)
	backends := make([]Backend, 3)
	for i := range nodes {
		nodes[i] = newNamedNode(t, fmt.Sprintf("node-%d", i))
		backends[i] = nodes[i]
	}
	c, err := NewCluster(ClusterConfig{Replicas: 2}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	primaries := map[uint64]Backend{}
	for i := uint64(0); i < 300; i++ {
		if _, err := c.LookupOrInsert(ctx, fp(i), Value(i)); err != nil {
			t.Fatalf("LookupOrInsert: %v", err)
		}
		replicas, err := c.routingFor(fp(i))
		if err != nil {
			t.Fatalf("routingFor: %v", err)
		}
		if replicas[1].ID() == "node-1" {
			primaries[i] = replicas[0]
			if err := nodes[1].Insert(ctx, fp(i), Value(i+1_000_000)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
	}
	if len(primaries) == 0 {
		t.Fatal("node-1 is no key's secondary; test is vacuous")
	}
	if _, err := c.DrainNode(ctx, "node-1"); err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	for i, p := range primaries {
		r, err := p.Lookup(ctx, fp(i))
		if err != nil || !r.Exists || r.Value != Value(i) {
			t.Fatalf("primary %s of fingerprint %d = (%+v, %v) after the drain, want value %d", p.ID(), i, r, err, i)
		}
	}
	nodes[1].Close()
}

func TestDrainLastNodeRefused(t *testing.T) {
	node := newNamedNode(t, "only")
	c, err := NewCluster(ClusterConfig{}, node)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	if _, err := c.DrainNode(context.Background(), "only"); err == nil {
		t.Fatal("draining the last node succeeded")
	}
	if _, err := c.DrainNode(context.Background(), "ghost"); err == nil {
		t.Fatal("draining an unknown node succeeded")
	}
}
