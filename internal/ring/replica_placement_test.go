package ring

import (
	"fmt"
	"testing"

	"shhc/internal/fingerprint"
)

// TestReplicaPlacementProperty is the table-driven placement property for
// replication: for every membership size and every replica count, the
// successor set returned by LookupN has exactly min(replicas, nodes)
// entries, all entries are distinct physical nodes (the owner never
// appears twice), and the first entry is always the Lookup owner.
func TestReplicaPlacementProperty(t *testing.T) {
	const fps = 2000
	for nodes := 1; nodes <= 8; nodes++ {
		for replicas := 1; replicas <= 5; replicas++ {
			t.Run(fmt.Sprintf("nodes=%d/replicas=%d", nodes, replicas), func(t *testing.T) {
				r := New(32)
				for i := 0; i < nodes; i++ {
					if err := r.Add(NodeID(fmt.Sprintf("node-%d", i))); err != nil {
						t.Fatalf("Add: %v", err)
					}
				}
				want := replicas
				if want > nodes {
					want = nodes
				}
				for i := uint64(0); i < fps; i++ {
					fp := fingerprint.FromUint64(i)
					set, err := r.LookupN(fp, replicas)
					if err != nil {
						t.Fatalf("LookupN(%d): %v", i, err)
					}
					if len(set) != want {
						t.Fatalf("LookupN(%d) returned %d nodes, want min(%d, %d) = %d",
							i, len(set), replicas, nodes, want)
					}
					seen := make(map[NodeID]struct{}, len(set))
					for _, id := range set {
						if _, dup := seen[id]; dup {
							t.Fatalf("LookupN(%d) contains %q twice: %v", i, id, set)
						}
						seen[id] = struct{}{}
					}
					owner, err := r.Lookup(fp)
					if err != nil {
						t.Fatalf("Lookup(%d): %v", i, err)
					}
					if set[0] != owner {
						t.Fatalf("LookupN(%d)[0] = %q, want owner %q", i, set[0], owner)
					}
				}
			})
		}
	}
}

// TestReplicaPlacementAcrossMembershipChange checks that the property holds
// through Add/Remove churn and that the reference walk (reference_test.go)
// agrees with LookupN for the fingerprint's own prefix hash.
func TestReplicaPlacementAcrossMembershipChange(t *testing.T) {
	r := New(32)
	for i := 0; i < 5; i++ {
		if err := r.Add(NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	check := func(nodes int) {
		t.Helper()
		ref := newReference(r)
		want := 3
		if want > nodes {
			want = nodes
		}
		for i := uint64(0); i < 500; i++ {
			fp := fingerprint.FromUint64(i)
			set, err := r.LookupN(fp, 3)
			if err != nil {
				t.Fatalf("LookupN: %v", err)
			}
			if len(set) != want {
				t.Fatalf("LookupN(%d) = %v, want %d nodes", i, set, want)
			}
			seen := make(map[NodeID]struct{}, len(set))
			for _, id := range set {
				if _, dup := seen[id]; dup {
					t.Fatalf("duplicate node %q in %v", id, set)
				}
				seen[id] = struct{}{}
			}
			byHash, err := ref.lookupNHash(fp.Prefix64(), 3)
			if err != nil {
				t.Fatalf("lookupNHash: %v", err)
			}
			if len(byHash) != len(set) {
				t.Fatalf("lookupNHash disagrees with LookupN: %v vs %v", byHash, set)
			}
			for j := range set {
				if byHash[j] != set[j] {
					t.Fatalf("lookupNHash disagrees with LookupN: %v vs %v", byHash, set)
				}
			}
		}
	}
	check(5)
	if err := r.Remove("node-2"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	check(4)
	if err := r.Remove("node-4"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	check(3)
	if err := r.Add("node-2"); err != nil {
		t.Fatalf("re-Add: %v", err)
	}
	check(4)
}
