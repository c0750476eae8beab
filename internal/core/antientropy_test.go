package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

// TestAntiEntropyRestoresReplicationAfterJoin: a node joining the ring
// takes over replica ranges it holds no data for; the sweep must walk the
// surviving copies and re-replicate every entry the newcomer now owes.
func TestAntiEntropyRestoresReplicationAfterJoin(t *testing.T) {
	nodes := make([]*Node, 3)
	for i := range nodes {
		node, err := NewNode(NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%d", i)),
			Store:         hashdb.CreateMem(nil, hashdb.Options{}),
			CacheSize:     512,
			BloomExpected: 100000,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = node
	}
	c, err := NewCluster(ClusterConfig{Replicas: 2}, nodes[0], nodes[1])
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	const n = 300
	for i := 0; i < n; i++ {
		if _, err := c.LookupOrInsert(ctx, fingerprint.FromUint64(uint64(i)), Value(i+1)); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}

	if err := c.addNode(nodes[2]); err != nil {
		t.Fatalf("addNode: %v", err)
	}
	st, err := c.AntiEntropy(ctx)
	if err != nil {
		t.Fatalf("AntiEntropy: %v", err)
	}
	if st.Scanned < n {
		t.Fatalf("sweep scanned %d entries, want >= %d", st.Scanned, n)
	}
	// addNode woke the background sweeper, which races this manual sweep —
	// either may find the other already did the repairs, so assert the
	// cumulative counter (polling: the background sweep posts its counters
	// only when it finishes).
	deadline := time.Now().Add(5 * time.Second)
	for c.ReplicationStats().AntiEntropyRepaired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no sweep repaired anything after the join")
		}
		time.Sleep(time.Millisecond)
	}

	// Every seeded fingerprint must now be present on its full (current)
	// replica set, with its original value.
	for i := 0; i < n; i++ {
		fp := fingerprint.FromUint64(uint64(i))
		replicas, err := c.routingFor(fp)
		if err != nil {
			t.Fatalf("routingFor: %v", err)
		}
		if len(replicas) != 2 {
			t.Fatalf("fingerprint %d has %d replicas, want 2", i, len(replicas))
		}
		for _, b := range replicas {
			r, err := b.Lookup(ctx, fp)
			if err != nil || !r.Exists || r.Value != Value(i+1) {
				t.Fatalf("replica %s of fingerprint %d = %+v, %v, want exists value %d", b.ID(), i, r, err, i+1)
			}
		}
	}

	// A second sweep over a healthy cluster finds nothing to do.
	st, err = c.AntiEntropy(ctx)
	if err != nil {
		t.Fatalf("second AntiEntropy: %v", err)
	}
	if st.Repaired != 0 {
		t.Fatalf("sweep over a healthy cluster repaired %d entries", st.Repaired)
	}

	rs := c.ReplicationStats()
	if rs.AntiEntropyRuns < 2 || rs.AntiEntropyRepaired == 0 {
		t.Fatalf("replication stats did not mirror the sweeps: %+v", rs)
	}
}

// TestAntiEntropyNoopWithoutReplication: with Replicas=1 there is nothing
// to re-replicate and the sweep must be a free no-op.
func TestAntiEntropyNoopWithoutReplication(t *testing.T) {
	c := newTestCluster(t, 3, ClusterConfig{})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := c.LookupOrInsert(ctx, fingerprint.FromUint64(uint64(i)), Value(i+1)); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	st, err := c.AntiEntropy(ctx)
	if err != nil {
		t.Fatalf("AntiEntropy: %v", err)
	}
	if st != (AntiEntropyStats{}) {
		t.Fatalf("unreplicated sweep did work: %+v", st)
	}
}

// TestAntiEntropyLoopHealsAfterMembershipChange: with a periodic interval
// configured, divergence introduced by a membership change heals without
// anyone calling AntiEntropy explicitly.
func TestAntiEntropyLoopHealsAfterMembershipChange(t *testing.T) {
	nodes := make([]*Node, 3)
	for i := range nodes {
		node, err := NewNode(NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%d", i)),
			Store:         hashdb.CreateMem(nil, hashdb.Options{}),
			CacheSize:     512,
			BloomExpected: 100000,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = node
	}
	c, err := NewCluster(ClusterConfig{Replicas: 2, AntiEntropyInterval: 5 * time.Millisecond}, nodes[0], nodes[1])
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	const n = 100
	for i := 0; i < n; i++ {
		if _, err := c.LookupOrInsert(ctx, fingerprint.FromUint64(uint64(i)), Value(i+1)); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	if err := c.addNode(nodes[2]); err != nil {
		t.Fatalf("addNode: %v", err)
	}

	// The loop (woken by the membership change, and ticking every 5ms)
	// must converge the newcomer without an explicit sweep.
	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy := true
	check:
		for i := 0; i < n; i++ {
			fp := fingerprint.FromUint64(uint64(i))
			replicas, err := c.routingFor(fp)
			if err != nil {
				t.Fatalf("routingFor: %v", err)
			}
			for _, b := range replicas {
				if r, err := b.Lookup(ctx, fp); err != nil || !r.Exists {
					healthy = false
					break check
				}
			}
		}
		if healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("anti-entropy loop did not restore replication within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
