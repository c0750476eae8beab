package ring

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refRing is the routing the table replaced, kept as the reference the
// table is checked against: a sorted []point searched with sort.Search and
// a successor walk that dedups through a map. Stored fingerprints live on
// the nodes this walk named, so the table must name exactly the same ones.
type refRing struct {
	points []point
	nodes  int
}

// newReference rebuilds the reference from r's membership alone, so it
// shares no state with the table under test.
func newReference(r *Ring) *refRing {
	ref := &refRing{}
	for _, id := range r.Nodes() {
		ref.nodes++
		for i := 0; i < r.vnodes; i++ {
			ref.points = append(ref.points, point{hash: pointHash(id, i), node: id})
		}
	}
	sort.Slice(ref.points, func(i, j int) bool {
		a, b := ref.points[i], ref.points[j]
		return a.hash < b.hash || a.hash == b.hash && a.node < b.node
	})
	return ref
}

// lookupNHash is the pre-table LookupN keyed by a raw ring position.
func (r *refRing) lookupNHash(h uint64, n int) ([]NodeID, error) {
	if len(r.points) == 0 {
		return nil, fmt.Errorf("ring: empty ring")
	}
	if n > r.nodes {
		n = r.nodes
	}
	result := make([]NodeID, 0, n)
	seen := make(map[NodeID]struct{}, n)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0
	}
	for i := 0; len(result) < n && i < len(r.points); i++ {
		p := r.points[(idx+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		result = append(result, p.node)
	}
	return result, nil
}

// checkAgainstReference probes count ring positions — random ones, plus
// every point's own hash and its two neighbours, where an off-by-one in the
// search would show — and requires the table's owner and ordered successor
// set to equal the reference's.
func checkAgainstReference(t *testing.T, r *Ring, rng *rand.Rand, count int) {
	t.Helper()
	ref := newReference(r)
	tab := r.Table()
	if tab.Len() == 0 {
		if len(ref.points) != 0 {
			t.Fatalf("table is empty, reference has %d points", len(ref.points))
		}
		return
	}
	probe := func(h uint64) {
		want, err := ref.lookupNHash(h, r.replicas)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		p := tab.Point(h)
		got := tab.Successors(p)
		if len(got) != len(want) {
			t.Fatalf("position %#x: table names %d nodes, reference %v", h, len(got), want)
		}
		for i, idx := range got {
			if tab.Nodes()[idx] != want[i] {
				t.Fatalf("position %#x: successor %d is %q, reference %v", h, i, tab.Nodes()[idx], want)
			}
		}
		if owner := tab.Nodes()[tab.Owner(p)]; owner != want[0] {
			t.Fatalf("position %#x: owner %q, reference %q", h, owner, want[0])
		}
	}
	for _, pt := range ref.points {
		probe(pt.hash - 1)
		probe(pt.hash)
		probe(pt.hash + 1)
	}
	probe(0)
	probe(^uint64(0))
	for i := 0; i < count; i++ {
		probe(rng.Uint64())
	}
}

// TestTableMatchesReference is the placement property behind the routing
// table: through random Add/Remove sequences over 1-16 nodes and replica
// counts 1-3, and for over a million random ring positions in all, the
// table routes exactly as the walk it replaced.
func TestTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sequences, steps, probes := 12, 16, 6000 // 12 × 16 × 6000 > 1 M positions
	if testing.Short() {
		sequences, probes = 3, 500
	}
	for seq := 0; seq < sequences; seq++ {
		replicas := 1 + seq%3
		r := NewReplicated(1+rng.Intn(64), replicas)
		member := map[NodeID]bool{}
		for step := 0; step < steps; step++ {
			id := NodeID(fmt.Sprintf("node-%02d", rng.Intn(16)))
			if member[id] {
				if err := r.Remove(id); err != nil {
					t.Fatalf("Remove(%s): %v", id, err)
				}
			} else if err := r.Add(id); err != nil {
				t.Fatalf("Add(%s): %v", id, err)
			}
			member[id] = !member[id]
			checkAgainstReference(t, r, rng, probes)
		}
	}
}

// TestTableOrderIndependent: two rings that learned the same members in
// different orders publish identical tables, ties included.
func TestTableOrderIndependent(t *testing.T) {
	ids := []NodeID{"a", "b", "c", "d", "e"}
	fwd, rev := NewReplicated(16, 2), NewReplicated(16, 2)
	for i := range ids {
		if err := fwd.Add(ids[i]); err != nil {
			t.Fatal(err)
		}
		if err := rev.Add(ids[len(ids)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	a, b := fwd.Table(), rev.Table()
	if fmt.Sprint(a.hashes, a.owner, a.succ, a.nodes) != fmt.Sprint(b.hashes, b.owner, b.succ, b.nodes) {
		t.Fatal("tables differ for the same membership added in a different order")
	}
	// Equal hashes must order by NodeID, not by arrival.
	tied := []point{{hash: 7, node: "z"}, {hash: 7, node: "y"}, {hash: 3, node: "z"}}
	tab := build(tied, map[NodeID]struct{}{"y": {}, "z": {}}, 1)
	if got := fmt.Sprint(tab.owner); got != "[1 0 1]" {
		t.Fatalf("owners of tied points = %s, want [1 0 1] (z@3, y@7, z@7)", got)
	}
}

// TestAllocLookup pins the owner lookup at zero allocations.
func TestAllocLookup(t *testing.T) {
	r := New(DefaultVirtualNodes)
	for i := 0; i < 4; i++ {
		if err := r.Add(NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tab := r.Table()
	var h uint64
	allocs := testing.AllocsPerRun(1000, func() {
		h += 0x9e3779b97f4a7c15
		_ = tab.Successors(tab.Point(h))
	})
	if allocs != 0 {
		t.Fatalf("table owner lookup allocates %v/op; want 0", allocs)
	}
}
