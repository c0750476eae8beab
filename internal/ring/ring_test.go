package ring

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"shhc/internal/fingerprint"
)

func members(n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("node-%d", i))
	}
	return ids
}

// shares returns each member's fraction of the 64-bit key space: a key
// routes to the first point at or clockwise from it, so the arc before a
// point belongs to that point's owner.
func shares(tab *Table) []float64 {
	s := make([]float64, len(tab.Nodes()))
	for i, h := range tab.hashes {
		prev := tab.hashes[(i+len(tab.hashes)-1)%len(tab.hashes)]
		s[tab.Owner(i)] += float64(h-prev) / (1 << 64)
	}
	return s
}

func spread(s []float64) float64 { return slices.Max(s) / slices.Min(s) }

// owner returns the member fp routes to.
func owner(tab *Table, fp fingerprint.Fingerprint) NodeID {
	return tab.Nodes()[tab.Owner(tab.Point(fp.Prefix64()))]
}

// successors returns fp's replica set by name, owner first.
func successors(tab *Table, fp fingerprint.Fingerprint) []NodeID {
	var ids []NodeID
	for _, i := range tab.Successors(tab.Point(fp.Prefix64())) {
		ids = append(ids, tab.Nodes()[i])
	}
	return ids
}

// distinct fails t if set names a member twice.
func distinct(t *testing.T, set []NodeID) {
	t.Helper()
	for i, id := range set {
		if slices.Contains(set[:i], id) {
			t.Fatalf("%s twice in %v", id, set)
		}
	}
}

// TestEmptyRingErrors: no members build a table with no positions, which
// callers answer with ErrEmpty before they call Point.
func TestEmptyRingErrors(t *testing.T) {
	for _, ids := range [][]NodeID{nil, {}} {
		if tab := Build(0, 2, ids); tab.Len() != 0 || len(tab.Nodes()) != 0 {
			t.Fatalf("Build(%v): %d positions, members %v; want none", ids, tab.Len(), tab.Nodes())
		}
	}
}

// TestAddRemoveMembership: a table holds each member named once, however
// often it is named, with vnodes positions each; a member left out of the
// list is not in the table.
func TestAddRemoveMembership(t *testing.T) {
	ids := members(3)
	tab := Build(0, 1, append(slices.Clone(ids), "node-0"))
	if !slices.Equal(tab.Nodes(), ids) || tab.Len() != 3*DefaultVirtualNodes {
		t.Fatalf("members %v with %d positions, want %v with %d", tab.Nodes(), tab.Len(), ids, 3*DefaultVirtualNodes)
	}
	less := Build(0, 1, []NodeID{"node-0", "node-2"})
	if less.Len() != 2*DefaultVirtualNodes || slices.Contains(less.Nodes(), "node-1") {
		t.Fatalf("without node-1: members %v with %d positions", less.Nodes(), less.Len())
	}
}

// TestLookupDeterministic: a fingerprint routes to the same member on
// every lookup, in every table built from the same members.
func TestLookupDeterministic(t *testing.T) {
	fp := fingerprint.FromUint64(12345)
	first := owner(Build(0, 1, members(4)), fp)
	tab := Build(0, 1, members(4))
	for range 100 {
		if got := owner(tab, fp); got != first {
			t.Fatalf("lookup not deterministic: %s vs %s", got, first)
		}
	}
}

// TestLookupDistribution is Figure 6 in miniature: ~25% of keys per node
// at N=4.
func TestLookupDistribution(t *testing.T) {
	tab := Build(0, 1, members(4))
	counts := map[NodeID]int{}
	const n = 40000
	for i := range n {
		counts[owner(tab, fingerprint.FromUint64(uint64(i)))]++
	}
	if len(counts) != 4 {
		t.Fatalf("keys landed on %d nodes, want 4", len(counts))
	}
	for id, c := range counts {
		if share := float64(c) / n; share < 0.15 || share > 0.35 {
			t.Fatalf("node %s got %.1f%% of keys, want 25%% +/- 10", id, share*100)
		}
	}
}

// TestLookupNReplicas: a replica set is replicas distinct members, owner
// first.
func TestLookupNReplicas(t *testing.T) {
	tab := Build(0, 3, members(5))
	fp := fingerprint.FromUint64(777)
	set := successors(tab, fp)
	if len(set) != 3 {
		t.Fatalf("got %d replicas, want 3", len(set))
	}
	distinct(t, set)
	if o := owner(tab, fp); set[0] != o {
		t.Fatalf("first replica %s is not the owner %s", set[0], o)
	}
}

// TestLookupNMoreThanNodes: asking for more replicas than members names
// every member once.
func TestLookupNMoreThanNodes(t *testing.T) {
	tab := Build(0, 5, members(2))
	if set := successors(tab, fingerprint.FromUint64(1)); len(set) != 2 || tab.Width() != 2 {
		t.Fatalf("got replicas %v, width %d; want both 2 nodes", set, tab.Width())
	}
}

// TestBalanceShares: the members' key-space shares sum to one, and at the
// default virtual nodes none is over twice another's.
func TestBalanceShares(t *testing.T) {
	s := shares(Build(0, 1, members(4)))
	total := 0.0
	for _, x := range s {
		total += x
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v, want 1.0", total)
	}
	if spread(s) > 2.0 {
		t.Fatalf("max/min share = %v, want <= 2.0 with %d vnodes", spread(s), DefaultVirtualNodes)
	}
}

// TestBalancePredictsRouting: the key-space shares match where keys
// actually route, also with few virtual nodes where arcs are uneven.
func TestBalancePredictsRouting(t *testing.T) {
	tab := Build(4, 1, members(4)) // deliberately coarse
	const n = 200000
	counts := make([]float64, len(tab.Nodes()))
	for i := range n {
		counts[tab.Owner(tab.Point(fingerprint.FromUint64(uint64(i)).Prefix64()))]++
	}
	predicted := shares(tab)
	for i, c := range counts {
		if diff := c/n - predicted[i]; diff > 0.02 || diff < -0.02 {
			t.Fatalf("node %s: empirical share %.3f vs predicted %.3f", tab.Nodes()[i], c/n, predicted[i])
		}
	}
}

// TestQuickLookupConsistency: for arbitrary fingerprints the owner is a
// member and heads the replica set.
func TestQuickLookupConsistency(t *testing.T) {
	ids := members(3)
	tab := Build(0, 2, ids)
	f := func(seed uint64) bool {
		fp := fingerprint.FromUint64(seed)
		o := owner(tab, fp)
		return slices.Contains(ids, o) && successors(tab, fp)[0] == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaPlacementProperty is the routing table's contract, for every
// membership of 1-8 nodes and 1-5 replicas:
//   - the same members, in any order and with repeats, build tables that
//     agree point for point, so two fronts route alike on one record;
//   - at 2, 4 and 8 nodes and the default virtual nodes, no member's share
//     of the key space is over twice another's (the paper's Figure 6);
//   - every successor set is min(replicas, nodes) distinct members, owner
//     first.
func TestReplicaPlacementProperty(t *testing.T) {
	for nodes := 1; nodes <= 8; nodes++ {
		for replicas := 1; replicas <= 5; replicas++ {
			t.Run(fmt.Sprintf("nodes=%d/replicas=%d", nodes, replicas), func(t *testing.T) {
				ids := members(nodes)
				tab := Build(0, replicas, ids)
				rng := rand.New(rand.NewSource(int64(nodes*8 + replicas)))
				mixed := append(slices.Clone(ids), ids[rng.Intn(nodes)], ids[0])
				rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
				again := Build(0, replicas, mixed)
				if !slices.Equal(tab.Nodes(), ids) || !slices.Equal(again.Nodes(), ids) {
					t.Fatalf("members %v and %v, want %v", tab.Nodes(), again.Nodes(), ids)
				}
				probes := slices.Clone(tab.hashes)
				for range 2000 {
					probes = append(probes, rng.Uint64())
				}
				for _, h := range probes {
					p, q := tab.Point(h), again.Point(h)
					if !slices.Equal(tab.Successors(p), again.Successors(q)) {
						t.Fatalf("position %#x: %v from %v, %v from %v", h, tab.Successors(p), ids, again.Successors(q), mixed)
					}
				}

				if nodes == 2 || nodes == 4 || nodes == 8 {
					if s := shares(tab); spread(s) > 2.0 {
						t.Errorf("shares %v: max/min %.2f, want <= 2.0 with %d vnodes", s, spread(s), DefaultVirtualNodes)
					}
				}

				want := min(replicas, nodes)
				for p := range tab.Len() {
					set := tab.Successors(p)
					if len(set) != want || set[0] != tab.Owner(p) {
						t.Fatalf("position %d: successors %v, owner %d, want %d members owner first", p, set, tab.Owner(p), want)
					}
					for i, o := range set {
						if slices.Contains(set[:i], o) {
							t.Fatalf("position %d: %d twice in %v", p, o, set)
						}
					}
				}
			})
		}
	}
}

// TestMoreVNodesImproveBalance: more points per member even out the shares.
func TestMoreVNodesImproveBalance(t *testing.T) {
	coarse, fine := spread(shares(Build(4, 1, members(4)))), spread(shares(Build(512, 1, members(4))))
	if fine > coarse {
		t.Fatalf("more vnodes worsened balance: fine=%v coarse=%v", fine, coarse)
	}
}

// TestRemovalOnlyMovesKeysFromRemovedNode is consistent hashing's key
// property: without one member, only the keys it owned route elsewhere.
func TestRemovalOnlyMovesKeysFromRemovedNode(t *testing.T) {
	ids := members(4)
	all := Build(0, 1, ids)
	less := Build(0, 1, slices.Delete(slices.Clone(ids), 2, 3))
	for i := range 5000 {
		fp := fingerprint.FromUint64(uint64(i))
		before, after := owner(all, fp), owner(less, fp)
		if before != "node-2" && after != before {
			t.Fatalf("key %d moved from surviving node %s to %s", i, before, after)
		}
		if after == "node-2" {
			t.Fatalf("key %d still routed to removed node", i)
		}
	}
}

// TestTableOrderIndependent: points tied on hash order by member, not by
// the order they arrived in.
func TestTableOrderIndependent(t *testing.T) {
	tied := []point{{hash: 7, node: 1}, {hash: 7, node: 0}, {hash: 3, node: 1}}
	tab := build(tied, []NodeID{"y", "z"}, 1)
	if got := fmt.Sprint(tab.owner); got != "[1 0 1]" {
		t.Fatalf("owners of tied points = %s, want [1 0 1] (z@3, y@7, z@7)", got)
	}
}

// TestAllocLookup pins the owner lookup at zero allocations.
func TestAllocLookup(t *testing.T) {
	tab := Build(0, 2, members(4))
	var h uint64
	allocs := testing.AllocsPerRun(1000, func() {
		h += 0x9e3779b97f4a7c15
		_ = tab.Successors(tab.Point(h))
	})
	if allocs != 0 {
		t.Fatalf("table owner lookup allocates %v/op; want 0", allocs)
	}
}
