package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"shhc/internal/hashdb"
)

func TestJoinNodeBasic(t *testing.T) {
	nodes := make([]*Node, 2)
	backends := make([]Backend, 2)
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

	joiner := newNamedNode(t, "node-join")
	stats, err := c.JoinNode(context.Background(), joiner)
	if err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	if c.Size() != 3 {
		t.Fatalf("Size = %d, want 3", c.Size())
	}
	if stats.Moved == 0 {
		t.Fatal("JoinNode moved nothing")
	}
	// The joiner owns and holds its share, and only its share moved: an
	// entry whose owner did not change stays where it was.
	jst, _ := joiner.Stats(context.Background())
	if jst.StoreEntries == 0 {
		t.Fatal("joiner holds no entries")
	}
	if stats.Moved != jst.StoreEntries {
		t.Fatalf("Moved = %d, want the joiner's %d entries", stats.Moved, jst.StoreEntries)
	}
	// Relocated entries were cleaned off old owners: total entries == n.
	all, _ := c.Stats(context.Background())
	total := 0
	for _, st := range all {
		total += st.StoreEntries
	}
	if total != n {
		t.Fatalf("total entries after join = %d, want %d (no duplicates left behind)", total, n)
	}
	// Dedup intact.
	for i := uint64(0); i < n; i++ {
		r, err := c.LookupOrInsert(context.Background(), fp(i), 999)
		if err != nil || !r.Exists {
			t.Fatalf("fingerprint %d lost by join (%v)", i, err)
		}
	}
}

func TestJoinNodeDuplicateRejected(t *testing.T) {
	c := newTestCluster(t, 2, ClusterConfig{})
	dup, err := NewNode(NodeConfig{ID: "node-0", Store: hashdb.CreateMem(nil, hashdb.Options{}), CacheSize: 8})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer dup.Close()
	if _, err := c.JoinNode(context.Background(), dup); err == nil {
		t.Fatal("JoinNode accepted duplicate ID")
	}
}

func TestJoinNodePreservesValues(t *testing.T) {
	nodes := make([]*Node, 2)
	backends := make([]Backend, 2)
	for i := range nodes {
		nodes[i] = newNamedNode(t, fmt.Sprintf("node-%d", i))
		backends[i] = nodes[i]
	}
	c, err := NewCluster(ClusterConfig{}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	for i := uint64(0); i < 500; i++ {
		c.LookupOrInsert(context.Background(), fp(i), Value(i*3))
	}
	joiner := newNamedNode(t, "node-join")
	if _, err := c.JoinNode(context.Background(), joiner); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	for i := uint64(0); i < 500; i++ {
		r, err := c.Lookup(context.Background(), fp(i))
		if err != nil || !r.Exists {
			t.Fatalf("fingerprint %d missing (%v)", i, err)
		}
		if r.Value != Value(i*3) {
			t.Fatalf("fingerprint %d value = %d after join, want %d", i, r.Value, i*3)
		}
	}
}

// A join whose hand-off fails once the existing members were raised rolls
// back: every node involved and the cluster move on, one generation past
// the aborted one, to the old membership, and nothing the members held is
// lost or answered "new".
func TestJoinNodeRollsBackWhenTheJoinerFails(t *testing.T) {
	ctx := context.Background()
	nodes := []*Node{newNamedNode(t, "node-0"), newNamedNode(t, "node-1")}
	c, err := NewCluster(ClusterConfig{}, nodes[0], nodes[1])
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if _, err := c.LookupOrInsert(ctx, fp(i), Value(i)); err != nil {
			t.Fatalf("LookupOrInsert: %v", err)
		}
	}
	// The joiner takes the copy ahead, then fails every page once the
	// members refuse generation 1: step 3 of the hand-off.
	joiner := &repairHook{Node: newNamedNode(t, "node-join"), before: func(context.Context) error {
		if rec, _ := nodes[0].Routing(ctx, Routing{}); rec.Gen > 1 {
			return errInjected
		}
		return nil
	}}
	defer joiner.Close()
	if _, err := c.JoinNode(ctx, joiner); !errors.Is(err, errInjected) {
		t.Fatalf("JoinNode = %v, want the joiner's failure", err)
	}
	if got := c.route.Load().rec; got.Gen != 3 || len(got.Members) != 2 || c.Size() != 2 {
		t.Fatalf("after the rollback the cluster routes on %+v with %d backends, want generation 3 of the two members", got, c.Size())
	}
	for _, h := range []RoutingHolder{nodes[0], nodes[1], joiner} {
		if rec, _ := h.Routing(ctx, Routing{}); rec.Gen != 3 || len(rec.Members) != 2 {
			t.Fatalf("a node involved holds %+v after the rollback, want generation 3 of the two members", rec)
		}
	}
	for i := uint64(0); i < n; i++ {
		if r, err := c.LookupOrInsert(ctx, fp(i), 999); err != nil || !r.Exists || r.Value != Value(i) {
			t.Fatalf("fingerprint %d after the rollback = %+v, %v", i, r, err)
		}
	}
}
