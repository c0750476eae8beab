// Package ring partitions the fingerprint space across SHHC hash nodes.
//
// The paper's cluster is "like the Chord system ... made up of a set of
// connected hash nodes, which hold a range of hash values", but runs in a
// "reasonably structured and relatively static environment" — so routing is
// a local table lookup (the per-node "Node Routing" box in Figure 3), not a
// multi-hop overlay. This package builds that table: a consistent hash ring
// with virtual nodes, giving the near-uniform placement the paper measures
// in Figure 6 (~25% of entries per node at N=4).
//
// A table is a function of its membership alone: Build makes one per routing
// record, and a lookup in it takes no lock and allocates nothing.
package ring

import (
	"cmp"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"strconv"
)

// DefaultVirtualNodes is the number of ring points per physical node.
// 128 keeps the max/min partition spread under ~1.3x for small clusters.
const DefaultVirtualNodes = 128

// NodeID identifies a physical hash node in the cluster.
type NodeID string

// ErrEmpty is returned by lookups on a table with no members.
var ErrEmpty = errors.New("ring: empty ring")

// point is one ring position and the index of the member it belongs to.
type point struct {
	hash uint64
	node int32
}

// Table is one immutable routing snapshot: the sorted ring positions, the
// node owning each, and per position the ordered successor set replication
// writes to. Nodes are named by their index into Nodes(), so a caller can
// keep per-node state in a flat slice. Callers must not modify the slices
// its methods return.
type Table struct {
	hashes []uint64 // ring positions, ascending (ties by node)
	// first[b] is the first position whose top bits (hash >> shift) are >= b,
	// plus one past the last bucket: with 1-2 buckets per SHA-1 position Point
	// scans a step or two, not a binary search's mispredicted branches.
	first []int32
	shift uint
	owner []int32 // owner[p] is the node index of position p
	// succ holds each position's first width distinct nodes clockwise, owner
	// first; with width 1 it is the owner slice itself.
	succ  []int32
	width int
	nodes []NodeID // ascending
}

// Len returns the number of ring positions; 0 means the ring is empty and
// Point must not be called.
func (t *Table) Len() int { return len(t.hashes) }

// Nodes returns the members, ascending; a node index is a position in it.
func (t *Table) Nodes() []NodeID { return t.nodes }

// Width is the size of every successor set: min(replicas, members).
func (t *Table) Width() int { return t.width }

// Point returns the ring position owning hash h: the first one at or
// clockwise from h.
func (t *Table) Point(h uint64) int {
	p := int(t.first[h>>t.shift])
	for p < len(t.hashes) && t.hashes[p] < h {
		p++
	}
	if p == len(t.hashes) {
		return 0
	}
	return p
}

// Owner returns the node index owning position p.
func (t *Table) Owner(p int) int32 { return t.owner[p] }

// Successors returns position p's replica set as node indices, owner first.
func (t *Table) Successors(p int) []int32 {
	return t.succ[p*t.width : (p+1)*t.width : (p+1)*t.width]
}

// Build returns the table of members with vnodes points each (vnodes <= 0
// selects DefaultVirtualNodes), placed by SHA-1 like the fingerprints, and
// successor sets of replicas members. A member named twice counts once, and
// the order members are named in does not matter: every front-end builds
// the same table from the same record.
func Build(vnodes, replicas int, members []NodeID) *Table {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	nodes := slices.Compact(slices.Sorted(slices.Values(members)))
	points := make([]point, 0, len(nodes)*vnodes)
	for i, id := range nodes {
		for v := range vnodes {
			sum := sha1.Sum([]byte(string(id) + "#" + strconv.Itoa(v)))
			points = append(points, point{hash: binary.BigEndian.Uint64(sum[:8]), node: int32(i)})
		}
	}
	return build(points, nodes, replicas)
}

// build makes the table of points over nodes, ascending; points is sorted
// in place, ties on hash by node.
func build(points []point, nodes []NodeID, replicas int) *Table {
	t := &Table{nodes: nodes}
	slices.SortFunc(points, func(a, b point) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.node, b.node))
	})
	t.hashes = make([]uint64, len(points))
	t.owner = make([]int32, len(points))
	for i, p := range points {
		t.hashes[i] = p.hash
		t.owner[i] = p.node
	}
	nbits := uint(bits.Len(uint(len(points)))) // 1-2 buckets per position
	t.shift = 64 - nbits
	t.first = make([]int32, 1<<nbits+1)
	p := 0
	for b := range t.first {
		for p < len(points) && points[p].hash>>t.shift < uint64(b) {
			p++
		}
		t.first[b] = int32(p)
	}
	if t.width = max(min(replicas, len(nodes)), 1); t.width == 1 {
		t.succ = t.owner
		return t
	}
	t.succ = make([]int32, 0, len(points)*t.width)
	for p := range points {
		set := len(t.succ)
		for i := p; len(t.succ)-set < t.width; i++ {
			if o := t.owner[i%len(t.owner)]; !slices.Contains(t.succ[set:], o) {
				t.succ = append(t.succ, o)
			}
		}
	}
	return t
}
