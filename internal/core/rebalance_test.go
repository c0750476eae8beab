package core

import (
	"context"
	"errors"
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
		Store:         hashdb.NewMemStore(),
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
	store := hashdb.NewMemStore()
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

// Draining a node hands its entries over in pages: 100k entries reach their
// two targets in at most 1 % as many backend calls as entries (a per-key
// mover makes one call per entry), and each lands on its owner with its
// value.
func TestDrainHandsOffInPages(t *testing.T) {
	ctx := context.Background()
	src := newNamedNode(t, "node-0")
	targets := []*countingBackend{counting(newNamedNode(t, "node-1")), counting(newNamedNode(t, "node-2"))}
	c, err := NewCluster(ClusterConfig{}, src, targets[0], targets[1])
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	const n = 100_000
	var pairs []Pair
	for i := uint64(0); len(pairs) < n; i++ {
		if owner, _ := c.Owner(fp(i)); owner == "node-0" {
			pairs = append(pairs, Pair{FP: fp(i), Val: Value(i + 1)})
		}
	}
	for lo := 0; lo < n; lo += 4096 {
		if _, err := src.BatchLookupOrInsert(ctx, pairs[lo:min(lo+4096, n)]); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	st, err := c.DrainNode(ctx, "node-0")
	if err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if st.Moved != n {
		t.Fatalf("Moved = %d, want %d", st.Moved, n)
	}
	calls := int64(0)
	for _, b := range targets {
		calls += b.batches.Load() + b.singles.Load() + b.repairs.Load()
	}
	t.Logf("%d entries drained in %d target calls", n, calls)
	if calls > n/100 {
		t.Fatalf("the drain made %d target calls for %d entries, want at most %d", calls, n, n/100)
	}
	for _, p := range pairs[:1000] {
		owner, _ := c.routingFor(p.FP)
		if r, err := owner[0].Lookup(ctx, p.FP); err != nil || !r.Exists || r.Value != p.Val {
			t.Fatalf("owner %s of %s = (%+v, %v), want value %d", owner[0].ID(), p.FP.Short(), r, err, p.Val)
		}
	}
	src.Close()
}

// repairHook runs before on every ApplyRepair call it passes to its node; an
// error from it fails the call.
type repairHook struct {
	*Node
	before func(ctx context.Context) error
}

func (b *repairHook) ApplyRepair(ctx context.Context, pairs []Pair) ([]LookupResult, error) {
	if err := b.before(ctx); err != nil {
		return nil, err
	}
	return b.Node.ApplyRepair(ctx, pairs)
}

// A drain cancelled after its flip leaves the node attached and out of the
// ring with what has not moved; DrainNode on it again resumes the move,
// and leaves every key on its owner and the node detached.
func TestDrainResumesAfterCancelledMove(t *testing.T) {
	ctx := context.Background()
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var c *Cluster
	moves := 0 // ApplyRepair calls after the flip
	before := func(ctx context.Context) error {
		if len(c.route.Load().backends) == 3 {
			return nil
		}
		if moves++; moves == 2 {
			cancel()
			return ctx.Err()
		}
		return nil
	}
	drained := newNamedNode(t, "node-0")
	targets := []*repairHook{{newNamedNode(t, "node-1"), before}, {newNamedNode(t, "node-2"), before}}
	c, err := NewCluster(ClusterConfig{}, drained, targets[0], targets[1])
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	const n = 6000
	for i := uint64(0); i < n; i++ {
		if _, err := c.LookupOrInsert(ctx, fp(i), Value(i+1)); err != nil {
			t.Fatalf("LookupOrInsert: %v", err)
		}
	}
	held, _ := drained.Stats(ctx)

	if _, err := c.DrainNode(dctx, "node-0"); !errors.Is(err, context.Canceled) {
		t.Fatalf("DrainNode cancelled after its flip = %v, want context.Canceled", err)
	}
	left, _ := drained.Stats(ctx)
	if c.Size() != 3 || left.StoreEntries == 0 || left.StoreEntries == held.StoreEntries {
		t.Fatalf("after the cancel: %d members, node-0 holds %d of its %d entries; want it attached, part moved",
			c.Size(), left.StoreEntries, held.StoreEntries)
	}
	st, err := c.DrainNode(ctx, "node-0")
	if err != nil {
		t.Fatalf("resumed DrainNode: %v", err)
	}
	if st.Moved != left.StoreEntries {
		t.Fatalf("resumed drain moved %d, want the %d left", st.Moved, left.StoreEntries)
	}
	if after, _ := drained.Stats(ctx); c.Size() != 2 || after.StoreEntries != 0 {
		t.Fatalf("after the resumed drain: %d members, node-0 holds %d", c.Size(), after.StoreEntries)
	}
	for i := uint64(0); i < n; i++ {
		owner, _ := c.routingFor(fp(i))
		if r, err := owner[0].Lookup(ctx, fp(i)); err != nil || !r.Exists || r.Value != Value(i+1) {
			t.Fatalf("owner %s of fingerprint %d = (%+v, %v), want value %d", owner[0].ID(), i, r, err, i+1)
		}
	}
	drained.Close()
}
