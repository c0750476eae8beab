package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

// TestLookupRepairsMissingOwner: the owner lost an entry its successor
// holds (the wipe-disk shape). A plain Lookup must answer with the
// replica's copy — a single replica's miss never wins — and one lookup
// must converge the owner via read-repair.
func TestLookupRepairsMissingOwner(t *testing.T) {
	nodes := make([]*Node, 2)
	backends := make([]Backend, 2)
	for i := range nodes {
		node, err := NewNode(NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%d", i)),
			Store:         hashdb.NewMemStore(),
			CacheSize:     256,
			BloomExpected: 100000,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = node
		backends[i] = node
	}
	c, err := NewCluster(ClusterConfig{Replicas: 2}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	fp := fpOwnedBy(t, c, "node-0")
	// Seed only the successor: the owner diverged (lost the entry).
	if err := nodes[1].Insert(ctx, fp, 7); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	r, err := c.Lookup(ctx, fp)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if !r.Exists || r.Value != 7 {
		t.Fatalf("lookup with diverged owner = %+v, want exists value 7 (ghost new!)", r)
	}
	if got := c.ReplicationStats().ReadRepairs; got == 0 {
		t.Fatal("divergence observed but no read-repair recorded")
	}
	if err := c.FlushRepairs(ctx); err != nil {
		t.Fatalf("FlushRepairs: %v", err)
	}
	or, err := nodes[0].Lookup(ctx, fp)
	if err != nil || !or.Exists || or.Value != 7 {
		t.Fatalf("owner after read-repair = %+v, %v, want exists value 7", or, err)
	}
}

// TestRepairDroppedForNonReplicaTarget: a queued repair whose target is
// not in the fingerprint's replica set by the time the worker pops it
// must be dropped, not applied — the guard that keeps stale repairs from
// resurrecting entries onto nodes that no longer own them.
func TestRepairDroppedForNonReplicaTarget(t *testing.T) {
	c := newTestCluster(t, 3, ClusterConfig{Replicas: 2})
	ctx := context.Background()

	fp := fingerprint.FromUint64(1)
	replicas, err := c.routingFor(fp)
	if err != nil {
		t.Fatalf("routingFor: %v", err)
	}
	inSet := map[ring.NodeID]bool{}
	for _, b := range replicas {
		inSet[b.ID()] = true
	}
	var outsider Backend
	c.mu.RLock()
	for id, b := range c.backends {
		if !inSet[id] {
			outsider = b
		}
	}
	c.mu.RUnlock()
	if outsider == nil {
		t.Fatal("no node outside the replica set (ring degenerate?)")
	}

	c.enqueueRepair(outsider.ID(), fp, 5)
	if err := c.FlushRepairs(ctx); err != nil {
		t.Fatalf("FlushRepairs: %v", err)
	}
	if r, err := outsider.Lookup(ctx, fp); err != nil || r.Exists {
		t.Fatalf("stale repair resurrected %s on non-replica %s: %+v, %v", fp.Short(), outsider.ID(), r, err)
	}
	if got := c.ReplicationStats().RepairsDropped; got == 0 {
		t.Fatal("stale repair was not counted as dropped")
	}
}

// TestRepairDroppedForRemovedNode: repairs already queued for a node when
// it leaves the ring must not land on it afterwards.
func TestRepairDroppedForRemovedNode(t *testing.T) {
	nodes := make([]*Node, 3)
	backends := make([]Backend, 3)
	for i := range nodes {
		node, err := NewNode(NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%d", i)),
			Store:         hashdb.NewMemStore(),
			CacheSize:     256,
			BloomExpected: 100000,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = node
		backends[i] = node
	}
	c, err := NewCluster(ClusterConfig{Replicas: 2}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	defer nodes[2].Close() // detached below; the cluster no longer closes it
	ctx := context.Background()

	if err := c.removeNode("node-2"); err != nil {
		t.Fatalf("removeNode: %v", err)
	}
	for i := uint64(0); i < 50; i++ {
		c.enqueueRepair("node-2", fingerprint.FromUint64(i), Value(i+1))
	}
	if err := c.FlushRepairs(ctx); err != nil {
		t.Fatalf("FlushRepairs: %v", err)
	}
	for i := uint64(0); i < 50; i++ {
		fp := fingerprint.FromUint64(i)
		if r, err := nodes[2].Lookup(ctx, fp); err != nil || r.Exists {
			t.Fatalf("repair landed on removed node: %s = %+v, %v", fp.Short(), r, err)
		}
	}
}

// TestRepairChurnUnderMembershipChanges races the repair queue against
// membership churn: concurrent inserts, explicit repair enqueues, and a
// node leaving and rejoining the ring. Run under -race; the invariant is
// no crash, no deadlock, and every insert remains servable.
func TestRepairChurnUnderMembershipChanges(t *testing.T) {
	nodes := make([]*Node, 3)
	backends := make([]Backend, 3)
	for i := range nodes {
		node, err := NewNode(NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%d", i)),
			Store:         hashdb.NewMemStore(),
			CacheSize:     512,
			BloomExpected: 100000,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = node
		backends[i] = node
	}
	// WriteQuorum 1 so inserts keep succeeding while a replica is out.
	c, err := NewCluster(ClusterConfig{Replicas: 2, WriteQuorum: 1}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	const inserts = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Churner: node-2 leaves and rejoins until the writers finish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.removeNode("node-2"); err != nil {
				continue
			}
			time.Sleep(time.Millisecond)
			if err := c.addNode(nodes[2]); err != nil {
				t.Errorf("addNode: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Repair-spammer: enqueues repairs for targets that may be mid-churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.enqueueRepair(ring.NodeID(fmt.Sprintf("node-%d", i%3)), fingerprint.FromUint64(uint64(i%inserts)), Value(i%inserts+1))
		}
	}()

	for i := 0; i < inserts; i++ {
		if _, err := c.LookupOrInsert(ctx, fingerprint.FromUint64(uint64(i)), Value(i+1)); err != nil {
			t.Fatalf("LookupOrInsert %d during churn: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := c.FlushRepairs(ctx); err != nil {
		t.Fatalf("FlushRepairs: %v", err)
	}

	for i := 0; i < inserts; i++ {
		r, err := c.Lookup(ctx, fingerprint.FromUint64(uint64(i)))
		if err != nil {
			t.Fatalf("Lookup %d after churn: %v", i, err)
		}
		if !r.Exists {
			t.Fatalf("insert %d vanished after churn", i)
		}
	}
}
