package ring

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"shhc/internal/fingerprint"
)

// refPoint is one position of the reference ring.
type refPoint struct {
	hash uint64
	node NodeID
}

// refRing is the routing the table replaced, kept as the reference the
// table is checked against: a sorted []refPoint searched with sort.Search
// and a successor walk that dedups through a map. Stored fingerprints live
// on the nodes this walk named, so the table must name exactly the same
// ones. It places points itself, so a change to where Build puts them
// fails here too.
type refRing struct {
	points []refPoint
	nodes  int
}

func newReference(members map[NodeID]bool, vnodes int) *refRing {
	ref := &refRing{}
	for id, in := range members {
		if !in {
			continue
		}
		ref.nodes++
		for i := 0; i < vnodes; i++ {
			sum := sha1.Sum([]byte(string(id) + "#" + strconv.Itoa(i)))
			ref.points = append(ref.points, refPoint{hash: binary.BigEndian.Uint64(sum[:8]), node: id})
		}
	}
	sort.Slice(ref.points, func(i, j int) bool {
		a, b := ref.points[i], ref.points[j]
		return a.hash < b.hash || a.hash == b.hash && a.node < b.node
	})
	return ref
}

// lookupNHash is the pre-table LookupN keyed by a raw ring position.
func (r *refRing) lookupNHash(h uint64, n int) []NodeID {
	n = min(n, r.nodes)
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
	return result
}

// checkAgainstReference probes count ring positions — random ones, plus
// every point's own hash and its two neighbours, where an off-by-one in the
// search would show — and requires the table's owner and ordered successor
// set to equal the reference's.
func checkAgainstReference(t *testing.T, tab *Table, ref *refRing, replicas int, rng *rand.Rand, count int) {
	t.Helper()
	if tab.Len() != len(ref.points) {
		t.Fatalf("table has %d points, reference %d", tab.Len(), len(ref.points))
	}
	if tab.Len() == 0 {
		return
	}
	probe := func(h uint64) {
		want := ref.lookupNHash(h, replicas)
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
// table: over random walks of memberships of 0-16 nodes (each named in a
// random order, one of them twice), replica counts 1-3 and virtual node
// counts 1-64, and for over a million random ring positions in all, the
// table routes exactly as the walk it replaced.
func TestTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sequences, steps, probes := 12, 16, 6000 // 12 × 16 × 6000 > 1 M positions
	if testing.Short() {
		sequences, probes = 3, 500
	}
	for seq := 0; seq < sequences; seq++ {
		replicas, vnodes := 1+seq%3, 1+rng.Intn(64)
		member := map[NodeID]bool{}
		for step := 0; step < steps; step++ {
			id := NodeID(fmt.Sprintf("node-%02d", rng.Intn(16)))
			member[id] = !member[id]
			var named []NodeID
			for i := range 16 {
				if id := NodeID(fmt.Sprintf("node-%02d", i)); member[id] {
					named = append(named, id)
				}
			}
			if len(named) > 0 {
				named = append(named, named[rng.Intn(len(named))])
			}
			rng.Shuffle(len(named), func(i, j int) { named[i], named[j] = named[j], named[i] })
			checkAgainstReference(t, Build(vnodes, replicas, named), newReference(member, vnodes), replicas, rng, probes)
		}
	}
}

// TestReplicaPlacementAcrossMembershipChange: as members leave and one
// comes back, each fingerprint's replica set is min(3, members) distinct
// members and the one the reference walk names for its prefix hash.
func TestReplicaPlacementAcrossMembershipChange(t *testing.T) {
	member := map[NodeID]bool{}
	for _, id := range members(5) {
		member[id] = true
	}
	for _, change := range []NodeID{"", "node-2", "node-4", "node-2"} {
		if change != "" {
			member[change] = !member[change]
		}
		var ids []NodeID
		for id, in := range member {
			if in {
				ids = append(ids, id)
			}
		}
		tab, ref := Build(32, 3, ids), newReference(member, 32)
		for i := range uint64(500) {
			fp := fingerprint.FromUint64(i)
			set := successors(tab, fp)
			if len(set) != min(3, len(ids)) {
				t.Fatalf("%d members: fingerprint %d has replicas %v", len(ids), i, set)
			}
			distinct(t, set)
			if want := ref.lookupNHash(fp.Prefix64(), 3); !slices.Equal(set, want) {
				t.Fatalf("%d members: fingerprint %d has replicas %v, reference %v", len(ids), i, set, want)
			}
		}
	}
}
