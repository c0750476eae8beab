package core

import (
	"context"
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
	dup, err := NewNode(NodeConfig{ID: "node-0", Store: hashdb.NewMemStore(), CacheSize: 8})
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
