package rpc

import (
	"context"
	"testing"

	"shhc/internal/core"
)

// TestRepairVerbRoundTrip drives the REPAIR verb end to end: the remote
// node applies the batch with lookup-or-insert semantics, accounts it in
// the replication stats block, and those counters survive the stats
// payload back to the client.
func TestRepairVerbRoundTrip(t *testing.T) {
	node, client := startNode(t, "n1")

	pairs := []core.Pair{
		{FP: fp(1), Val: 11},
		{FP: fp(2), Val: 22},
		{FP: fp(3), Val: 33},
	}
	rs, err := client.ApplyRepair(context.Background(), pairs)
	if err != nil {
		t.Fatalf("ApplyRepair: %v", err)
	}
	for i, r := range rs {
		if r.Exists {
			t.Fatalf("fresh repair pair %d reported existing", i)
		}
	}
	// A second wave is pure confirmation: nothing new is created, and the
	// values already present win (keep-existing semantics).
	rs, err = client.ApplyRepair(context.Background(), []core.Pair{{FP: fp(1), Val: 99}})
	if err != nil {
		t.Fatalf("ApplyRepair again: %v", err)
	}
	if !rs[0].Exists || rs[0].Value != 11 {
		t.Fatalf("repeat repair = %+v, want exists value 11", rs[0])
	}

	st, err := node.Stats(context.Background())
	if err != nil {
		t.Fatalf("node Stats: %v", err)
	}
	if st.Replica.RepairBatches != 2 || st.Replica.RepairPairs != 4 || st.Replica.RepairCreated != 3 {
		t.Fatalf("node replica stats = %+v, want 2 batches / 4 pairs / 3 created", st.Replica)
	}
	remote, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if remote.Replica != st.Replica {
		t.Fatalf("replica stats over the wire = %+v, want %+v", remote.Replica, st.Replica)
	}
}
