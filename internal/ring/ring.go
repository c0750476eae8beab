// Package ring partitions the fingerprint space across SHHC hash nodes.
//
// The paper's cluster is "like the Chord system ... made up of a set of
// connected hash nodes, which hold a range of hash values", but runs in a
// "reasonably structured and relatively static environment" — so routing is
// a local table lookup (the per-node "Node Routing" box in Figure 3), not a
// multi-hop overlay. This package provides that table: a consistent hash
// ring with virtual nodes, giving the near-uniform placement the paper
// measures in Figure 6 (~25% of entries per node at N=4), plus cheap
// membership changes for the dynamic-scaling extension.
//
// Membership changes are rare and lookups are the hot path, so the ring is
// read-copy-update: Add and Remove rebuild an immutable Table and publish it
// through an atomic pointer; every lookup is a bucketed search of the table
// a single atomic load returned, with no lock and no allocation.
package ring

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"shhc/internal/fingerprint"
)

// DefaultVirtualNodes is the number of ring points per physical node.
// 128 keeps the max/min partition spread under ~1.3x for small clusters.
const DefaultVirtualNodes = 128

// NodeID identifies a physical hash node in the cluster.
type NodeID string

// ErrEmpty is returned by lookups on a ring with no members.
var ErrEmpty = errors.New("ring: empty ring")

type point struct {
	hash uint64
	node NodeID
}

// Table is one immutable routing snapshot of a Ring: the sorted ring
// positions, the node owning each, and per position the ordered successor
// set replication writes to. Nodes are named by their index into Nodes(),
// so a caller can keep per-node state in a flat slice. A Table never
// changes after it is published; callers must not modify the slices its
// methods return.
type Table struct {
	hashes []uint64 // ring positions, ascending (ties by NodeID)
	// first[b] is the first position whose hash's top bits (hash >> shift)
	// are >= b, with one entry past the last bucket. Positions are SHA-1
	// outputs, so 1-2 buckets per position leave Point a scan of a step or
	// two where a binary search would take log2(len) mispredicted branches.
	first []int32
	shift uint
	owner []int32 // owner[p] is the node index of position p
	// succ holds, for each position, its first width distinct nodes walking
	// clockwise (owner first), width entries per position. With width 1 it
	// is the owner slice itself.
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

// walk appends to dst the first n distinct node indices at or clockwise
// from position p — the one successor walk: build precomputes succ with it,
// LookupN falls back to it for an n wider than the table was built for.
// n must not exceed the member count.
func (t *Table) walk(p, n int, dst []int32) []int32 {
	base := len(dst)
	for i := 0; len(dst)-base < n; i++ {
		o := t.owner[(p+i)%len(t.owner)]
		dup := false
		for _, seen := range dst[base:] {
			if seen == o {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, o)
		}
	}
	return dst
}

// build makes the table for a membership. points is sorted in place.
func build(points []point, members map[NodeID]struct{}, replicas int) *Table {
	t := &Table{nodes: make([]NodeID, 0, len(members))}
	for id := range members {
		t.nodes = append(t.nodes, id)
	}
	sort.Slice(t.nodes, func(i, j int) bool { return t.nodes[i] < t.nodes[j] })
	index := make(map[NodeID]int32, len(t.nodes))
	for i, id := range t.nodes {
		index[id] = int32(i)
	}
	// Ties on hash break by NodeID so every front-end builds the same
	// table from the same membership, whatever order it learned it in.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].node < points[j].node
	})
	t.hashes = make([]uint64, len(points))
	t.owner = make([]int32, len(points))
	for i, p := range points {
		t.hashes[i] = p.hash
		t.owner[i] = index[p.node]
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
	t.width = min(replicas, len(t.nodes))
	if t.width <= 1 {
		t.width = 1
		t.succ = t.owner
		return t
	}
	t.succ = make([]int32, 0, len(points)*t.width)
	for p := range points {
		t.succ = t.walk(p, t.width, t.succ)
	}
	return t
}

// Ring is a consistent-hash router over the 64-bit fingerprint prefix
// space. It is safe for concurrent use: lookups read the published Table
// and never block; Add and Remove serialise on a mutex and swap the table.
type Ring struct {
	vnodes   int
	replicas int
	table    atomic.Pointer[Table]

	mu     sync.Mutex // serialises Add/Remove
	points []point
	nodes  map[NodeID]struct{}
}

// New creates a ring with the given number of virtual nodes per physical
// node. vnodes <= 0 selects DefaultVirtualNodes.
func New(vnodes int) *Ring { return NewReplicated(vnodes, 1) }

// NewReplicated is New for a cluster that keeps replicas copies of each
// entry: its tables precompute every position's successor set of that size.
func NewReplicated(vnodes, replicas int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes, replicas: max(replicas, 1), nodes: make(map[NodeID]struct{})}
	r.table.Store(build(nil, nil, r.replicas))
	return r
}

// pointHash derives a ring position for a (node, replica) pair. SHA-1 keeps
// placement aligned with the fingerprint distribution itself.
func pointHash(id NodeID, replica int) uint64 {
	sum := sha1.Sum([]byte(string(id) + "#" + strconv.Itoa(replica)))
	return binary.BigEndian.Uint64(sum[:8])
}

// Table returns the current routing snapshot.
func (r *Ring) Table() *Table { return r.table.Load() }

// Add inserts a node's virtual points. Adding an existing node is an error:
// membership is managed by the cluster, and a duplicate add indicates a
// bookkeeping bug.
func (r *Ring) Add(id NodeID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[id]; ok {
		return fmt.Errorf("ring: node %q already present", id)
	}
	r.nodes[id] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: pointHash(id, i), node: id})
	}
	r.table.Store(build(r.points, r.nodes, r.replicas))
	return nil
}

// Remove deletes a node's virtual points (node decommission / failure).
func (r *Ring) Remove(id NodeID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[id]; !ok {
		return fmt.Errorf("ring: node %q not present", id)
	}
	delete(r.nodes, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
	r.table.Store(build(r.points, r.nodes, r.replicas))
	return nil
}

// Lookup returns the node owning the fingerprint: the first ring point at
// or clockwise from the fingerprint's prefix hash.
func (r *Ring) Lookup(fp fingerprint.Fingerprint) (NodeID, error) {
	t := r.table.Load()
	if t.Len() == 0 {
		return "", ErrEmpty
	}
	return t.nodes[t.owner[t.Point(fp.Prefix64())]], nil
}

// LookupN returns the n distinct nodes responsible for the fingerprint:
// the owner followed by its distinct successors. Used for replication.
// If the ring has fewer than n nodes, all nodes are returned.
func (r *Ring) LookupN(fp fingerprint.Fingerprint, n int) ([]NodeID, error) {
	t := r.table.Load()
	if t.Len() == 0 {
		return nil, ErrEmpty
	}
	n = min(n, len(t.nodes))
	p := t.Point(fp.Prefix64())
	set := t.Successors(p)
	if n > len(set) {
		var buf [8]int32
		set = t.walk(p, n, buf[:0])
	}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = t.nodes[set[i]]
	}
	return ids, nil
}

// Nodes returns the current members in unspecified order.
func (r *Ring) Nodes() []NodeID {
	return append([]NodeID(nil), r.table.Load().nodes...)
}

// Len returns the number of physical nodes.
func (r *Ring) Len() int { return len(r.table.Load().nodes) }

// Balance describes how evenly the key space is divided.
type Balance struct {
	// Share maps each node to its fraction of the 64-bit key space.
	Share map[NodeID]float64
	// MaxOverMin is max share / min share; 1.0 is perfect balance.
	MaxOverMin float64
}

// Balance computes the key-space share owned by each node.
func (r *Ring) Balance() Balance {
	t := r.table.Load()
	share := make(map[NodeID]float64, len(t.nodes))
	if t.Len() == 0 {
		return Balance{Share: share}
	}
	total := float64(1 << 63 * 2) // 2^64 as float
	// A key routes to the first point at or clockwise after it, so the
	// arc *preceding* a point belongs to that point's node.
	for i, h := range t.hashes {
		var width uint64
		if i > 0 {
			width = h - t.hashes[i-1]
		} else {
			// wraparound arc from the last point to the first
			width = h - t.hashes[len(t.hashes)-1]
		}
		share[t.nodes[t.owner[i]]] += float64(width) / total
	}
	b := Balance{Share: share, MaxOverMin: 1}
	minShare, maxShare := 2.0, 0.0
	for _, s := range share {
		if s < minShare {
			minShare = s
		}
		if s > maxShare {
			maxShare = s
		}
	}
	if minShare > 0 {
		b.MaxOverMin = maxShare / minShare
	}
	return b
}
