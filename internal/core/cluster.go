package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/ring"
)

// Backend is one hash node as seen by the cluster router: either a local
// *Node or an RPC client talking to a remote node. Implementations must be
// safe for concurrent use, and every operation must honor its context:
// return promptly with ctx.Err() once the context is cancelled or its
// deadline passes.
type Backend interface {
	// ID returns the node's ring identity.
	ID() ring.NodeID
	// Lookup answers whether the fingerprint is stored, without inserting.
	Lookup(ctx context.Context, fp fingerprint.Fingerprint) (LookupResult, error)
	// LookupOrInsert runs the Figure 4 flow.
	LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val Value) (LookupResult, error)
	// BatchLookupOrInsert runs the flow for each pair, in order. pairs is
	// the caller's: it is only valid until the call returns (the cluster
	// hands out slices of pooled scratch), so an implementation that needs
	// a pair afterwards copies it first.
	BatchLookupOrInsert(ctx context.Context, pairs []Pair) ([]LookupResult, error)
	// Insert unconditionally records fp -> val.
	Insert(ctx context.Context, fp fingerprint.Fingerprint, val Value) error
	// Stats snapshots the node's counters.
	Stats(ctx context.Context) (NodeStats, error)
	// Close releases the backend.
	Close() error
}

var _ Backend = (*Node)(nil)

// ClusterConfig configures the cluster router.
type ClusterConfig struct {
	// Replicas is the number of nodes each fingerprint is written to.
	// 1 (default) reproduces the paper; >1 enables the fault-tolerance
	// extension: inserts fan out to the owner's successor set with quorum
	// acknowledgment (see WriteQuorum), reads fail over to successor
	// replicas, divergent replicas are healed by read-repair, and the
	// anti-entropy sweep re-replicates under-replicated ranges.
	Replicas int
	// WriteQuorum is the number of replicas (the deciding node included)
	// that must durably acknowledge an insert before it returns. 0 selects
	// a majority (Replicas/2 + 1); values are clamped to [1, Replicas].
	// With WriteQuorum == Replicas every acked insert is on every replica;
	// below that, stragglers are completed asynchronously via the repair
	// queue. An insert that cannot reach the quorum (mirrors down) does
	// not fail — the deciding node's copy is already durable, so it
	// degrades to the safe "new" answer (the client uploads the chunk)
	// with ReplicationStats.QuorumFailures counting the under-replicated
	// ack and the repair queue / anti-entropy converging it. Ignored when
	// Replicas is 1.
	WriteQuorum int
	// AntiEntropyInterval adds a periodic tick to the background
	// anti-entropy sweeper (Replicas > 1 only). The sweeper itself always
	// runs with replication on — membership changes (JoinNode, DrainNode)
	// trigger a sweep regardless, because the repair queue drops overflow
	// and failed repairs on the promise that a sweep heals them. 0 keeps
	// only the membership-triggered sweeps; AntiEntropy can also be called
	// manually at any time.
	AntiEntropyInterval time.Duration
}

// Cluster routes fingerprint operations across hash nodes. It is the
// client-side view of SHHC: the web front-end holds one Cluster and sends
// each fingerprint (or batch) to the node owning its hash range.
type Cluster struct {
	// mu guards the backends map, which also holds a joiner no record names
	// yet and a draining node the record no longer names. Routing never
	// takes it — every operation routes on the snapshot in route.
	mu       sync.RWMutex
	backends map[ring.NodeID]Backend
	replicas int
	// quorum is the resolved write quorum (acks required per insert,
	// deciding node included). See ClusterConfig.
	quorum int
	// route is the routing snapshot every operation loads once; each
	// membership change, and each record learned from a node, publishes a
	// new one under mu.
	route atomic.Pointer[routing]
	// change serializes JoinNode and DrainNode.
	change sync.Mutex

	// repl holds the replication counters (see ReplicationStats).
	repl replCounters

	// The coalesced repair queue (see replication.go). repairWake is nil
	// when Replicas is 1 — enqueueRepair is then a no-op.
	repairMu    sync.Mutex
	repairTasks map[repairKey]Value
	repairOrder []repairKey
	repairBusy  bool
	repairWake  chan struct{}
	// aeWake nudges the background anti-entropy sweeper after membership
	// changes (nil unless the sweeper runs).
	aeWake chan struct{}

	// bgCancel stops the background goroutines (repair worker, sweeper);
	// Close cancels and waits for bgWg before closing backends.
	bgCancel context.CancelFunc
	bgWg     sync.WaitGroup
}

// NewCluster creates a cluster over the given backends. It routes on
// generation 1 of their record; a node that holds a newer one refuses the
// first call routed to it, and the cluster then learns that record.
func NewCluster(cfg ClusterConfig, backends ...Backend) (*Cluster, error) {
	if len(backends) == 0 {
		return nil, errors.New("core: cluster needs at least one backend")
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	quorum := cfg.WriteQuorum
	if quorum <= 0 {
		quorum = replicas/2 + 1 // majority
	}
	if quorum > replicas {
		quorum = replicas
	}
	c := &Cluster{
		backends: make(map[ring.NodeID]Backend, len(backends)),
		replicas: replicas,
		quorum:   quorum,
	}
	rec := Routing{Gen: 1, Replicas: replicas}
	for _, b := range backends {
		if _, dup := c.backends[b.ID()]; dup {
			return nil, fmt.Errorf("core: duplicate backend %q", b.ID())
		}
		c.backends[b.ID()] = b
		rec.Members = append(rec.Members, b.ID())
	}
	c.route.Store(c.routeLocked(rec))
	if replicas > 1 {
		bgctx, cancel := context.WithCancel(context.Background())
		c.bgCancel = cancel
		c.repairTasks = make(map[repairKey]Value)
		c.repairWake = make(chan struct{}, 1)
		c.bgWg.Add(1)
		go c.repairWorker(bgctx)
		// The sweeper always runs with replication on: dropped repairs
		// rely on the membership-triggered sweeps as their backstop. The
		// interval only adds a periodic tick.
		c.aeWake = make(chan struct{}, 1)
		c.bgWg.Add(1)
		go c.antiEntropyLoop(bgctx, cfg.AntiEntropyInterval)
	}
	return c, nil
}

// routing is what one operation routes on: a routing record, the ring's
// table built from it, and the backend of each table node (indexed like
// table.Nodes()). Every call carries rec.Gen to the nodes it asks.
type routing struct {
	rec      Routing
	table    *ring.Table
	backends []Backend
}

// routeLocked builds the routing of rec over the cluster's backends. A
// member the cluster has no backend for routes to an absent one. Caller
// holds c.mu (or owns c exclusively).
func (c *Cluster) routeLocked(rec Routing) *routing {
	rt := &routing{rec: rec, table: ring.Build(rec.VNodes, rec.Replicas, rec.Members)}
	rt.rec.Members = rt.table.Nodes()
	rt.backends = make([]Backend, len(rt.rec.Members))
	for i, id := range rt.rec.Members {
		if rt.backends[i] = c.backends[id]; rt.backends[i] == nil {
			rt.backends[i] = absent(id)
		}
	}
	return rt
}

// adopt publishes rec as the routing every operation loads, unless the
// cluster already routes on a record as new.
func (c *Cluster) adopt(rec Routing) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec.Gen > c.route.Load().rec.Gen {
		c.route.Store(c.routeLocked(rec))
		c.signalMembershipChange()
	}
}

// next is rt's record one generation on, with join added (when not empty)
// and leave taken out.
func (rt *routing) next(join, leave ring.NodeID) Routing {
	rec := rt.rec
	rec.Gen++
	rec.Members = slices.DeleteFunc(slices.Clone(rec.Members), func(id ring.NodeID) bool { return id == leave })
	if join != "" {
		rec.Members = append(rec.Members, join)
	}
	return rec
}

// point returns fp's ring position, or ring.ErrEmpty.
func (rt *routing) point(fp fingerprint.Fingerprint) (int, error) {
	if rt.table.Len() == 0 {
		return 0, ring.ErrEmpty
	}
	return rt.table.Point(fp.Prefix64()), nil
}

// owner returns the ID of the node owning fp.
func (rt *routing) owner(fp fingerprint.Fingerprint) (ring.NodeID, error) {
	p, err := rt.point(fp)
	if err != nil {
		return "", err
	}
	return rt.table.Nodes()[rt.table.Owner(p)], nil
}

// replicasFor returns the backends holding fp, owner first. The slice is
// the caller's to keep but not to modify: without replication it aliases
// the snapshot.
func (rt *routing) replicasFor(fp fingerprint.Fingerprint) ([]Backend, error) {
	p, err := rt.point(fp)
	if err != nil {
		return nil, err
	}
	succ := rt.table.Successors(p)
	if len(succ) == 1 {
		o := succ[0]
		return rt.backends[o : o+1 : o+1], nil
	}
	backends := make([]Backend, len(succ))
	for i, idx := range succ {
		backends[i] = rt.backends[idx]
	}
	return backends, nil
}

// places reports whether fp's replica set includes the node id.
func (rt *routing) places(fp fingerprint.Fingerprint, id ring.NodeID) bool {
	p, err := rt.point(fp)
	if err != nil {
		return false
	}
	for _, i := range rt.table.Successors(p) {
		if rt.table.Nodes()[i] == id {
			return true
		}
	}
	return false
}

// relearn makes the cluster route on the record held by the node that
// refused a call routed on rt. A record the cluster has learned since is
// as good.
func (c *Cluster) relearn(ctx context.Context, rt *routing, r *refusal) error {
	if r.gen <= rt.rec.Gen {
		return r // a refusal that names no newer generation teaches nothing
	}
	if c.route.Load().rec.Gen >= r.gen {
		return nil
	}
	h, ok := r.from.(RoutingHolder)
	if !ok {
		return r
	}
	rec, err := h.Routing(ctx, Routing{})
	if err != nil {
		return fmt.Errorf("core: read the routing record of %s: %w", r.from.ID(), err)
	}
	c.adopt(rec)
	return nil
}

// Size returns the number of member nodes.
func (c *Cluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.backends)
}

// Owner returns the node responsible for a fingerprint.
func (c *Cluster) Owner(fp fingerprint.Fingerprint) (ring.NodeID, error) {
	return c.route.Load().owner(fp)
}

// Lookup queries the owner node, failing over to successor replicas when
// the owner errors (only useful with Replicas > 1). A node that refuses the
// call as stale-routed teaches the cluster its record, and the lookup runs
// again on it.
func (c *Cluster) Lookup(ctx context.Context, fp fingerprint.Fingerprint) (LookupResult, error) {
	for {
		rt := c.route.Load()
		res, err := c.lookupOn(ctx, rt, fp)
		r, stale := err.(*refusal)
		if !stale {
			return res, err
		}
		if err := c.relearn(ctx, rt, r); err != nil {
			return LookupResult{}, err
		}
	}
}

// lookupOn consults fp's replica set under rt sequentially. A hit from any
// replica answers immediately and read-repairs the replicas observed missing
// it. A miss is verified: with read-repair enabled the remaining replicas
// are probed too, so a single replica that lost its entries (a wiped disk, a
// node that rejoined empty) cannot turn a stored fingerprint into a
// spurious "new" — only when every reachable replica misses is the miss
// returned. With Replicas == 1 the one answer, hit or miss, wins. A refusal
// ends the walk.
func (c *Cluster) lookupOn(ctx context.Context, rt *routing, fp fingerprint.Fingerprint) (LookupResult, error) {
	targets, err := rt.replicasFor(fp)
	if err != nil {
		return LookupResult{}, err
	}
	rctx := WithRouteGen(ctx, rt.rec.Gen)
	verifyMiss := len(targets) > 1
	var (
		lastErr   error
		missSeen  bool
		firstMiss LookupResult
		missers   []Backend
	)
	for _, b := range targets {
		if cerr := ctx.Err(); cerr != nil {
			return LookupResult{}, cerr
		}
		r, err := b.Lookup(rctx, fp)
		if err != nil {
			if ref := refusedBy(b, err); ref != nil {
				return LookupResult{}, ref
			}
			lastErr = err
			continue
		}
		if r.Exists {
			c.readRepair(missers, fp, r.Value)
			return r, nil
		}
		if !verifyMiss {
			return r, nil
		}
		if !missSeen {
			missSeen, firstMiss = true, r
		}
		missers = append(missers, b)
	}
	if missSeen {
		return firstMiss, nil
	}
	return LookupResult{}, fmt.Errorf("core: lookup %s: all replicas failed: %w", fp.Short(), lastErr)
}

// LookupOrInsert runs the Figure 4 flow for one fingerprint: a
// BatchLookupOrInsert of one, with that call's routing, fail-over and quorum
// replication.
func (c *Cluster) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val Value) (LookupResult, error) {
	rs, err := c.BatchLookupOrInsert(ctx, []Pair{{FP: fp, Val: val}})
	if err != nil {
		return LookupResult{}, err
	}
	return rs[0], nil
}

// grouped is a batch sorted by owner node: node k's group is
// pairs[start[k]:start[k+1]], indices[j] is the input position of pairs[j],
// and points[i] the ring position of input pair i — owner and replica set
// both derive from it.
type grouped struct {
	pairs   []Pair
	indices []int32
	points  []int32
	start   []int32 // one entry per table node, plus one
}

// batchScratch is the pooled working memory of one BatchLookupOrInsert.
// Everything in it belongs to the call that took it from the pool and goes
// back when that call returns, which is why a Backend must not keep the
// pairs it was handed (see Backend).
type batchScratch struct {
	grouped
	next []int32 // the scatter cursor per node
}

// maxPooledBatch bounds the scratch the pool keeps: one huge plan must not
// pin its megabytes forever.
const maxPooledBatch = 1 << 16

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

//shhc:returns-buf
func getBatchScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

//shhc:takes-buf sc
func putBatchScratch(sc *batchScratch) {
	if cap(sc.pairs) > maxPooledBatch {
		*sc = batchScratch{}
	}
	batchScratchPool.Put(sc)
}

// group sorts the batch by owner node under rt into sc — a counting sort,
// so each group keeps its pairs in input order — and returns the view of sc
// that holds it, valid until sc goes back to the pool.
func (sc *batchScratch) group(rt *routing, pairs []Pair) grouped {
	if cap(sc.pairs) < len(pairs) {
		sc.pairs = make([]Pair, len(pairs))
		sc.indices = make([]int32, len(pairs))
		sc.points = make([]int32, len(pairs))
	}
	if nodes := len(rt.backends); cap(sc.start) <= nodes {
		sc.start = make([]int32, nodes+1)
		sc.next = make([]int32, nodes+1)
	}
	g := grouped{
		pairs:   sc.pairs[:len(pairs)],
		indices: sc.indices[:len(pairs)],
		points:  sc.points[:len(pairs)],
		start:   sc.start[:len(rt.backends)+1],
	}
	clear(g.start)
	for i := range pairs {
		p := rt.table.Point(pairs[i].FP.Prefix64())
		g.points[i] = int32(p)
		g.start[rt.table.Owner(p)+1]++
	}
	for k := 1; k < len(g.start); k++ {
		g.start[k] += g.start[k-1]
	}
	next := sc.next[:len(g.start)]
	copy(next, g.start)
	for i := range pairs {
		o := rt.table.Owner(int(g.points[i]))
		j := next[o]
		next[o]++
		g.pairs[j], g.indices[j] = pairs[i], int32(i)
	}
	return g
}

// BatchLookupOrInsert routes each pair to its owner node, issues one batch
// per node in parallel, and reassembles results in input order. This is the
// batching path the web front-end uses (paper §IV: batch sizes 1/128/2048).
// The batch routes on one snapshot of the routing table and is regrouped in
// pooled scratch, so a call allocates per node it reaches, not per pair.
// Misses — the pairs the owner's batch created — are then replicated as one
// ApplyRepair wave per mirror node (piggybacking on the mirror's own
// group-commit destage batching), so replication costs one extra batched
// round per replica rather than a per-key fan-out; the batch does not
// return until every created pair reached its write quorum (a quorum that
// cannot be met degrades to the safe "new" answers instead of failing —
// see replicateBatch). A group whose owner node is down fails over to its
// pairs' next replicas as sub-batches (see failOver), so one dead node does
// not fail the batch when its ranges have live replicas. A group whose
// owner refuses it as stale-routed did nothing there: the cluster learns
// that node's record and routes the group's pairs again.
// A cancelled ctx fails the whole batch with ctx.Err(); per-node batches
// already in flight stop issuing device reads.
func (c *Cluster) BatchLookupOrInsert(ctx context.Context, pairs []Pair) ([]LookupResult, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rt := c.route.Load()
	results := make([]LookupResult, len(pairs))
	refused, r, err := c.batchOn(ctx, rt, pairs, results)
	if err != nil {
		return nil, err
	}
	if len(refused) == 0 {
		return results, nil
	}
	if err := c.relearn(ctx, rt, r); err != nil {
		return nil, fmt.Errorf("core: batch: %w", err)
	}
	again := make([]Pair, len(refused))
	for j, i := range refused {
		again[j] = pairs[i]
	}
	rs, err := c.BatchLookupOrInsert(ctx, again)
	if err != nil {
		return nil, err
	}
	for j, i := range refused {
		results[i] = rs[j]
	}
	return results, nil
}

// batchOn runs the batch routed on rt, answering into results. It returns
// the input positions of the groups a node refused as stale-routed, and one
// of the refusals.
func (c *Cluster) batchOn(ctx context.Context, rt *routing, pairs []Pair, results []LookupResult) (refused []int32, r *refusal, err error) {
	if rt.table.Len() == 0 {
		return nil, nil, ring.ErrEmpty
	}
	ctx = WithRouteGen(ctx, rt.rec.Gen)
	sc := getBatchScratch()
	defer putBatchScratch(sc)
	g := sc.group(rt, pairs)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	runGroup := func(k int) {
		gpairs, gidx := g.pairs[g.start[k]:g.start[k+1]], g.indices[g.start[k]:g.start[k+1]]
		rs, err := rt.backends[k].BatchLookupOrInsert(ctx, gpairs)
		if err != nil {
			if ref := refusedBy(rt.backends[k], err); ref != nil {
				mu.Lock()
				refused, r = append(refused, gidx...), ref
				mu.Unlock()
				return
			}
			// A dead owner fails its whole group's decision. With
			// replication the successors hold the same ranges, so the
			// group fails over to them. Erroring the batch instead would
			// strand the groups that DID decide: their entries are
			// already durable, so a retried plan would call them
			// duplicates for chunks the client never uploaded (the same
			// poison the degraded quorum path avoids — see
			// replicateBatch). Cancellation is the caller's decision, not
			// a node failure: no failover.
			if ctx.Err() == nil && rt.table.Width() > 1 {
				err = c.failOver(ctx, rt, g.points, gpairs, gidx, results, err)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			return
		}
		for j, r := range rs {
			results[gidx[j]] = r
		}
		if rt.table.Width() > 1 {
			c.replicateBatch(ctx, rt, g.points, gpairs, gidx, rs, results, 0)
		}
	}
	// Every group but the last gets a goroutine; the last runs here, so a
	// batch that reaches one node — every small one — starts none.
	last := -1
	for k := range rt.backends {
		if g.start[k] == g.start[k+1] {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				runGroup(k)
			}(last)
		}
		last = k
	}
	runGroup(last)
	wg.Wait()
	if firstErr != nil {
		if isCtxErr(firstErr) {
			return nil, nil, firstErr
		}
		return nil, nil, fmt.Errorf("core: batch: %w", firstErr)
	}
	return refused, r, nil
}

// failOver decides a group whose owner errored (with err) on its pairs' other
// replicas. Rank by rank — rank r is the r-th node of a pair's successor list,
// the owner being rank 0 — the pairs still undecided are bucketed by their
// node of that rank, and each bucket goes out as one sub-batch that the node
// decides and replicateBatch mirrors to the pair's other ranks (the dead
// owner's wave fails and queues its repair). A dead node so costs its group
// one more backend call per node and rank, never one per pair. Pairs that no
// rank could decide fail the batch with the last node's error; pairs and
// indices are the group's, positions into points and results as in
// replicateBatch.
func (c *Cluster) failOver(ctx context.Context, rt *routing, points []int32, pairs []Pair, indices []int32, results []LookupResult, err error) error {
	type bucket struct {
		pairs   []Pair
		indices []int32
	}
	for rank := 1; rank < rt.table.Width() && len(pairs) > 0; rank++ {
		buckets := make([]bucket, len(rt.backends))
		for k, p := range pairs {
			b := &buckets[rt.table.Successors(int(points[indices[k]]))[rank]]
			b.pairs, b.indices = append(b.pairs, p), append(b.indices, indices[k])
		}
		pairs, indices = nil, nil // what this rank cannot decide either
		for m, b := range buckets {
			if len(b.pairs) == 0 {
				continue
			}
			rs, berr := rt.backends[m].BatchLookupOrInsert(ctx, b.pairs)
			if berr != nil {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				err = berr
				pairs, indices = append(pairs, b.pairs...), append(indices, b.indices...)
				continue
			}
			for j, r := range rs {
				results[b.indices[j]] = r
			}
			c.replicateBatch(ctx, rt, points, b.pairs, b.indices, rs, results, rank)
		}
	}
	if len(pairs) > 0 {
		return fmt.Errorf("core: lookup-or-insert %s: all replicas failed: %w", pairs[0].FP.Short(), err)
	}
	return nil
}

// Migrator is implemented by backends whose entries can be enumerated and
// removed locally — in-process *Node implements it; RPC clients do not
// (migration of remote nodes runs on the node's own machine).
type Migrator interface {
	Entries(ctx context.Context, fn func(fp fingerprint.Fingerprint, val Value) bool) error
	Remove(fp fingerprint.Fingerprint) (bool, error)
}

// RebalanceStats summarizes a membership change's migration.
type RebalanceStats struct {
	// Scanned is the number of entries examined, over both passes.
	Scanned int
	// Moved is the number of entries removed from a node that no longer
	// holds them, once their new nodes held them durably.
	Moved int
	// Skipped counts backends that do not support migration.
	Skipped int
}

// JoinNode adds a backend and hands it its arcs (see handOff): existing
// members only give arcs up, the joiner only takes them. Fingerprints
// already stored, and those first inserted during the join, are detected as
// duplicates throughout: the joiner answers for an arc only once what its
// old node held there has arrived.
//
// Cancelling ctx before the joiner is raised rolls the join back; after
// that, the removal of moved entries stops early and the entries left on
// their old nodes cost storage, never wrong answers.
func (c *Cluster) JoinNode(ctx context.Context, b Backend) (RebalanceStats, error) {
	var stats RebalanceStats
	c.change.Lock()
	defer c.change.Unlock()
	c.mu.Lock()
	if _, dup := c.backends[b.ID()]; dup {
		c.mu.Unlock()
		return stats, fmt.Errorf("core: duplicate backend %q", b.ID())
	}
	// Known before any record names it: a refusal that teaches this cluster
	// the next record finds the joiner's backend.
	c.backends[b.ID()] = b
	cur := c.route.Load()
	next := c.routeLocked(cur.next(b.ID(), ""))
	c.mu.Unlock()
	if err := c.handOff(ctx, cur, next, cur.backends, []Backend{b}, &stats); err != nil {
		c.mu.Lock()
		delete(c.backends, b.ID())
		c.mu.Unlock()
		return stats, err
	}
	for _, s := range cur.backends {
		if m, ok := s.(Migrator); ok {
			if _, _, err := c.move(ctx, s.ID(), m, next, next, true, &stats); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}

// DrainNode moves every entry off the named node and detaches it from the
// cluster (graceful decommission), in JoinNode's steps: the drained node
// only gives arcs up and the survivors only take them. The backend itself
// is not closed; its owner closes it after the drain.
//
// Cancelling ctx before the survivors are raised rolls the drain back.
// After that, the removal stops mid-pass and the node, out of the ring,
// stays attached with what it has not removed yet; calling DrainNode again
// on it resumes the removal.
func (c *Cluster) DrainNode(ctx context.Context, id ring.NodeID) (RebalanceStats, error) {
	var stats RebalanceStats
	c.change.Lock()
	defer c.change.Unlock()
	c.mu.RLock()
	b, ok := c.backends[id]
	cur := c.route.Load()
	inRing := slices.Contains(cur.rec.Members, id)
	var next *routing
	if ok && inRing && len(cur.rec.Members) > 1 {
		next = c.routeLocked(cur.next("", id))
	}
	c.mu.RUnlock()
	m, isMigrator := b.(Migrator)
	switch {
	case !ok:
		return stats, fmt.Errorf("core: unknown backend %q", id)
	case !isMigrator:
		return stats, fmt.Errorf("core: backend %q does not support migration", id)
	case inRing && next == nil:
		return stats, errors.New("core: cannot drain the last node")
	}
	if inRing {
		survivors := slices.DeleteFunc(slices.Clone(cur.backends), func(s Backend) bool { return s.ID() == id })
		if err := c.handOff(ctx, cur, next, []Backend{b}, survivors, &stats); err != nil {
			return stats, err
		}
	}
	rt := c.route.Load()
	if _, _, err := c.move(ctx, id, m, rt, rt, true, &stats); err != nil {
		return stats, err
	}
	c.mu.Lock()
	delete(c.backends, id)
	c.mu.Unlock()
	return stats, nil
}

// handOff moves the cluster from routing cur to next, which differ by one
// member, so the losers only give arcs up and the gainers only take them.
// It runs the first four steps of a membership change; the caller removes
// what moved, the fifth:
//
//  0. every node involved holds cur's record, so a gainer holds the calls
//     routed on next's until step 4;
//  1. the losers' entries are copied ahead to where next places them, while
//     routing is untouched;
//  2. the losers are raised to next's generation: from here no call routed
//     on cur reaches what they gave up, and none they admitted is still
//     running;
//  3. the copy runs again, taking what was inserted during step 1;
//  4. the gainers are raised, and the cluster routes on next.
//
// A failure in steps 2–4 rolls back: every node involved, and the cluster,
// move on to cur's membership under the generation after next's. Nothing
// was removed yet, and the gainers answered nothing for their new arcs.
func (c *Cluster) handOff(ctx context.Context, cur, next *routing, losers, gainers []Backend, st *RebalanceStats) error {
	involved := append(slices.Clone(losers), gainers...)
	for _, b := range involved {
		if _, ok := b.(RoutingHolder); !ok {
			return fmt.Errorf("core: backend %q holds no routing record", b.ID())
		}
	}
	var sources []Backend
	for _, b := range losers {
		if _, ok := b.(Migrator); ok {
			sources = append(sources, b)
		} else {
			st.Skipped++
		}
	}
	copyAhead := func() error {
		for _, b := range sources {
			if _, _, err := c.move(ctx, b.ID(), b.(Migrator), cur, next, false, st); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.raise(ctx, involved, cur.rec); err != nil {
		return err
	}
	if err := copyAhead(); err != nil {
		return err
	}
	err := c.raise(ctx, losers, next.rec)
	if err == nil {
		err = copyAhead()
	}
	if err == nil {
		err = c.raise(ctx, gainers, next.rec)
	}
	if err != nil {
		back := cur.rec
		back.Gen = next.rec.Gen + 1
		if rerr := c.raise(context.WithoutCancel(ctx), involved, back); rerr != nil {
			err = errors.Join(err, rerr)
		}
		c.adopt(back)
		return err
	}
	c.adopt(next.rec)
	return nil
}

// raise hands rec to each of bs in turn, and fails unless each then holds
// exactly rec's generation: a node past it has taken a membership change
// this cluster did not make.
func (c *Cluster) raise(ctx context.Context, bs []Backend, rec Routing) error {
	for _, b := range bs {
		got, err := b.(RoutingHolder).Routing(ctx, rec)
		if err != nil {
			return fmt.Errorf("core: raise %s to routing generation %d: %w", b.ID(), rec.Gen, err)
		}
		if got.Gen != rec.Gen {
			return fmt.Errorf("core: %s is at routing generation %d, not %d", b.ID(), got.Gen, rec.Gen)
		}
	}
	return nil
}

// movePage bounds one target's share of a move: the pairs one ApplyRepair
// call carries.
const movePage = 1024

// move is the one mover: membership changes and anti-entropy hand entries
// over through it. It walks the node id (src) and hands entries to the
// nodes the table to places them on, one ApplyRepair call per target and
// page of up to movePage pairs, and reports the pairs it sent and how many
// of them their targets created. ApplyRepair only fills a hole — an entry
// its target holds is the one lookups routed there were answered from —
// and is durable on return. Its pages carry no routing generation: a node
// takes them whatever its own.
//
// A copy (remove false) takes each entry that held places on the source;
// anything else there is a stray a stale call left behind before the fence
// refused such calls, which a removal takes. A removal runs under to, the
// table in force, with held == to: it takes each entry the table does not
// place on the source, and the source removes it once its last target's
// page has returned, if the table in force still does not place it there.
func (c *Cluster) move(ctx context.Context, id ring.NodeID, src Migrator, held, to *routing, remove bool, st *RebalanceStats) (sent, created int, err error) {
	if to.table.Len() == 0 {
		return 0, 0, ring.ErrEmpty
	}
	buckets := make([][]Pair, len(to.backends))
	err = src.Entries(ctx, func(fp fingerprint.Fingerprint, val Value) bool {
		st.Scanned++
		if held.places(fp, id) == remove {
			return true // a copy takes what the source holds, a removal the rest
		}
		for _, k := range to.table.Successors(to.table.Point(fp.Prefix64())) {
			if to.table.Nodes()[k] != id {
				buckets[k] = append(buckets[k], Pair{FP: fp, Val: val})
			}
		}
		return true
	})
	if err != nil {
		return 0, 0, fmt.Errorf("core: move from %s: %w", id, err)
	}
	for k, pairs := range buckets {
		for len(pairs) > 0 {
			page := pairs[:min(len(pairs), movePage)]
			pairs = pairs[len(page):]
			rs, err := applyRepair(ctx, to.backends[k], page)
			if err != nil {
				return sent, created, fmt.Errorf("core: move from %s to %s: %w", id, to.backends[k].ID(), err)
			}
			sent += len(page)
			for _, r := range rs {
				if !r.Exists {
					created++
				}
			}
			if !remove {
				continue
			}
			rt := c.route.Load()
			for _, p := range page {
				// Buckets go out in table order: an entry's last target is
				// the highest of its nodes (none of them is the source).
				if int(slices.Max(to.table.Successors(to.table.Point(p.FP.Prefix64())))) != k || rt.places(p.FP, id) {
					continue
				}
				if _, err := src.Remove(p.FP); err != nil {
					return sent, created, fmt.Errorf("core: move %s off %s: %w", p.FP.Short(), id, err)
				}
				st.Moved++
			}
		}
	}
	return sent, created, nil
}

// ClientTransportStats aggregates the client-side transport counters of
// the cluster's remote backends: how often a caller stalled waiting for
// stream send credit. In-process backends contribute nothing.
type ClientTransportStats struct {
	CreditStalls uint64
}

// clientTransportReporter is the optional backend surface for client-side
// transport counters (implemented by rpc.Client); asserted rather than
// added to Backend so in-process nodes need not carry it.
type clientTransportReporter interface {
	CreditStalls() uint64
}

// ClientTransportStats sums transport counters across backends that have
// them (remote RPC clients on multiplexed connections).
func (c *Cluster) ClientTransportStats() ClientTransportStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var ts ClientTransportStats
	for _, b := range c.backends {
		if r, ok := b.(clientTransportReporter); ok {
			ts.CreditStalls += r.CreditStalls()
		}
	}
	return ts
}

// Stats gathers per-node statistics, sorted by node ID.
func (c *Cluster) Stats(ctx context.Context) ([]NodeStats, error) {
	c.mu.RLock()
	backends := make([]Backend, 0, len(c.backends))
	for _, b := range c.backends {
		backends = append(backends, b)
	}
	c.mu.RUnlock()

	stats := make([]NodeStats, 0, len(backends))
	for _, b := range backends {
		st, err := b.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: stats from %s: %w", b.ID(), err)
		}
		stats = append(stats, st)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].ID < stats[j].ID })
	return stats, nil
}

// Close stops the background repair worker and anti-entropy sweeper, then
// closes every backend, returning the first error.
func (c *Cluster) Close() error {
	if c.bgCancel != nil {
		c.bgCancel()
	}
	c.bgWg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, b := range c.backends {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.backends = map[ring.NodeID]Backend{}
	return first
}
