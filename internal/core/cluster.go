package core

import (
	"context"
	"errors"
	"fmt"
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
	// VirtualNodes per backend on the ring; 0 selects the default.
	VirtualNodes int
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
	// DisableReadRepair turns off miss verification and read-repair on the
	// lookup paths (Replicas > 1 only): a lookup then returns the first
	// answer — hit or miss — from any replica, which restores the fastest
	// possible miss at the cost of trusting a single replica's "new". Keep
	// it off (the default) where a spurious "new" for a stored fingerprint
	// is not acceptable, e.g. when a replica could have lost its disk.
	DisableReadRepair bool
	// AntiEntropyInterval adds a periodic tick to the background
	// anti-entropy sweeper (Replicas > 1 only). The sweeper itself always
	// runs with replication on — membership changes (AddNode, RemoveNode,
	// JoinNode, DrainNode) trigger a sweep regardless, because the repair
	// queue drops overflow and failed repairs on the promise that a sweep
	// heals them. 0 keeps only the membership-triggered sweeps;
	// AntiEntropy can also be called manually at any time.
	AntiEntropyInterval time.Duration
}

// Cluster routes fingerprint operations across hash nodes. It is the
// client-side view of SHHC: the web front-end holds one Cluster and sends
// each fingerprint (or batch) to the node owning its hash range.
type Cluster struct {
	// mu guards membership: the ring's writers and the backends map, which
	// also holds a draining node the ring no longer names. Routing never
	// takes it — every operation routes on the snapshot in route.
	mu       sync.RWMutex
	ring     *ring.Ring
	vnodes   int
	backends map[ring.NodeID]Backend
	replicas int
	// quorum is the resolved write quorum (acks required per insert,
	// deciding node included); noReadRepair disables miss verification
	// and read-repair on the lookup paths. See ClusterConfig.
	quorum       int
	noReadRepair bool
	// route is the routing snapshot every operation loads once; each
	// membership change publishes a new one under mu.
	route atomic.Pointer[routing]

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

// NewCluster creates a cluster over the given backends.
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
		ring:         ring.NewReplicated(cfg.VirtualNodes, replicas),
		vnodes:       cfg.VirtualNodes,
		backends:     make(map[ring.NodeID]Backend, len(backends)),
		replicas:     replicas,
		quorum:       quorum,
		noReadRepair: cfg.DisableReadRepair,
	}
	for _, b := range backends {
		if err := c.addLocked(b); err != nil {
			return nil, err
		}
	}
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

// routing is what one operation routes on: the ring's table, the backend of
// each table node (indexed like table.Nodes()), and the membership
// generation the two belong to. gen rides in the same snapshot so that "did
// membership change since I routed?" compares against the generation of the
// very table the routing decisions came from — read separately, a bump
// between the two loads could pair a new table with an old generation and
// hide an owner move from reconciliation.
type routing struct {
	// gen counts membership changes. A batch only has misses to reconcile
	// when it moved (see ownerMoved/reconcileMiss), closing the window
	// where an entry migrates away between routing and execution.
	gen      uint64
	table    *ring.Table
	backends []Backend
}

// publishLocked swaps in the routing snapshot for the ring and backends as
// they are now. Callers hold c.mu for writing (or own c exclusively).
func (c *Cluster) publishLocked() {
	rt := &routing{table: c.ring.Table()}
	if old := c.route.Load(); old != nil {
		rt.gen = old.gen + 1
	}
	rt.backends = make([]Backend, len(rt.table.Nodes()))
	for i, id := range rt.table.Nodes() {
		rt.backends[i] = c.backends[id]
	}
	c.route.Store(rt)
	c.signalMembershipChange()
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

func (c *Cluster) addLocked(b Backend) error {
	id := b.ID()
	if _, dup := c.backends[id]; dup {
		return fmt.Errorf("core: duplicate backend %q", id)
	}
	if err := c.ring.Add(id); err != nil {
		return err
	}
	c.backends[id] = b
	c.publishLocked()
	return nil
}

// AddNode joins a new backend to the ring (dynamic scaling extension).
// Existing entries are not migrated; fingerprints that move ranges will be
// re-inserted on their next lookup, which is safe for a dedup index
// (a moved entry only costs one redundant chunk upload).
func (c *Cluster) AddNode(b Backend) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addLocked(b)
}

// RemoveNode detaches a backend from the ring without closing it.
func (c *Cluster) RemoveNode(id ring.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.backends[id]; !ok {
		return fmt.Errorf("core: unknown backend %q", id)
	}
	if err := c.ring.Remove(id); err != nil {
		return err
	}
	delete(c.backends, id)
	c.publishLocked()
	return nil
}

// Size returns the number of member nodes.
func (c *Cluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.backends)
}

// NodeIDs returns the member node IDs, sorted for stable output.
func (c *Cluster) NodeIDs() []ring.NodeID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]ring.NodeID, 0, len(c.backends))
	for id := range c.backends {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Owner returns the node responsible for a fingerprint.
func (c *Cluster) Owner(fp fingerprint.Fingerprint) (ring.NodeID, error) {
	return c.route.Load().owner(fp)
}

// routeRetries bounds how many times a miss is replayed after the queried
// fingerprint's owner changed mid-flight. Two ownership changes landing
// inside one lookup's flight time is already vanishingly rare; three
// retries is effectively "until stable".
const routeRetries = 3

// routingFor returns fp's replica set under the current routing snapshot.
func (c *Cluster) routingFor(fp fingerprint.Fingerprint) ([]Backend, error) {
	return c.route.Load().replicasFor(fp)
}

// ownerMoved reports whether fp's owner is now a different node than the
// one the caller just queried. This — not a bare generation bump — is the
// retry condition for a miss: if the owner is unchanged, a miss (or the
// caller's own fresh insert) on that owner is the authoritative answer,
// and replaying would read back the caller's own insert as a spurious
// "duplicate". Only when ownership actually moved can the current owner
// know something the queried node did not (a migrated entry).
func (c *Cluster) ownerMoved(fp fingerprint.Fingerprint, queried ring.NodeID) bool {
	owner, err := c.Owner(fp)
	return err == nil && owner != queried
}

// Lookup queries the owner node, failing over to successor replicas when
// the owner errors (only useful with Replicas > 1). A miss that raced an
// ownership change (the entry may have just migrated to a new owner) is
// retried against the current ring.
func (c *Cluster) Lookup(ctx context.Context, fp fingerprint.Fingerprint) (LookupResult, error) {
	var (
		res LookupResult
		err error
	)
	for attempt := 0; attempt < routeRetries; attempt++ {
		var owner ring.NodeID
		res, owner, err = c.lookupOnce(ctx, fp)
		if err != nil || res.Exists || !c.ownerMoved(fp, owner) {
			return res, err
		}
	}
	return res, err
}

// lookupOnce consults the replica set sequentially. A hit from any replica
// answers immediately and read-repairs the replicas observed missing it. A
// miss is verified: with read-repair enabled the remaining replicas are
// probed too, so a single replica that lost its entries (a wiped disk, a
// node that rejoined empty) cannot turn a stored fingerprint into a
// spurious "new" — only when every reachable replica misses is the miss
// returned. With DisableReadRepair (or Replicas == 1) the first answer,
// hit or miss, wins.
func (c *Cluster) lookupOnce(ctx context.Context, fp fingerprint.Fingerprint) (LookupResult, ring.NodeID, error) {
	targets, err := c.routingFor(fp)
	if err != nil {
		return LookupResult{}, "", err
	}
	owner := targets[0].ID()
	verifyMiss := len(targets) > 1 && !c.noReadRepair
	var (
		lastErr   error
		missSeen  bool
		firstMiss LookupResult
		missers   []Backend
	)
	for _, b := range targets {
		if cerr := ctx.Err(); cerr != nil {
			return LookupResult{}, owner, cerr
		}
		r, err := b.Lookup(ctx, fp)
		if err != nil {
			lastErr = err
			continue
		}
		if r.Exists {
			c.readRepair(missers, fp, r.Value)
			return r, owner, nil
		}
		if !verifyMiss {
			return r, owner, nil
		}
		if !missSeen {
			missSeen, firstMiss = true, r
		}
		missers = append(missers, b)
	}
	if missSeen {
		return firstMiss, owner, nil
	}
	return LookupResult{}, owner, fmt.Errorf("core: lookup %s: all replicas failed: %w", fp.Short(), lastErr)
}

// LookupOrInsert runs the Figure 4 flow for one fingerprint: a
// BatchLookupOrInsert of one, with that call's routing, fail-over, quorum
// replication and miss reconciliation.
func (c *Cluster) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val Value) (LookupResult, error) {
	rs, err := c.BatchLookupOrInsert(ctx, []Pair{{FP: fp, Val: val}})
	if err != nil {
		return LookupResult{}, err
	}
	return rs[0], nil
}

// reconcileMiss re-examines a LookupOrInsert miss whose owner moved while
// the call was in flight. The insert already happened on the old owner, so
// only a read-only probe of the current owner is safe; the probe's result
// is interpreted with a bias toward "new", because the failure modes are
// asymmetric — a wrong "new" costs one redundant upload, a wrong
// "duplicate" drops the chunk from the upload plan and loses data:
//
//   - found with a different value: a pre-existing entry migrated here —
//     report the duplicate.
//   - found with our own value: indistinguishable between our own insert
//     migrated over and an old entry that stored the same locator; "new"
//     is consistent either way (the upload lands on the same locator).
//   - still missing: keep "new" and heal placement by inserting on the
//     current owner, so future lookups find the entry where routing looks.
func (c *Cluster) reconcileMiss(ctx context.Context, fp fingerprint.Fingerprint, val Value, miss LookupResult) LookupResult {
	for attempt := 0; attempt < routeRetries; attempt++ {
		if ctx.Err() != nil {
			// The caller is leaving; the biased-toward-"new" miss is the
			// safe answer to leave behind.
			return miss
		}
		targets, err := c.routingFor(fp)
		if err != nil {
			return miss
		}
		owner := targets[0]
		r, err := owner.Lookup(ctx, fp)
		if err != nil {
			return miss
		}
		if r.Exists {
			if r.Value != val {
				return r
			}
			return miss
		}
		if !c.ownerMoved(fp, owner.ID()) {
			_ = owner.Insert(ctx, fp, val)
			return miss
		}
	}
	return miss
}

// grouped is a batch sorted by owner node: node k's group is
// pairs[start[k]:start[k+1]], indices[j] is the input position of pairs[j],
// and points[i] the ring position of input pair i — owner, replica set and,
// after a membership change, the NodeID that was asked all derive from it.
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
// not fail the batch when its ranges have live replicas.
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
	if rt.table.Len() == 0 {
		return nil, ring.ErrEmpty
	}
	sc := getBatchScratch()
	defer putBatchScratch(sc)
	g := sc.group(rt, pairs)

	results := make([]LookupResult, len(pairs))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	runGroup := func(k int) {
		gpairs, gidx := g.pairs[g.start[k]:g.start[k+1]], g.indices[g.start[k]:g.start[k+1]]
		rs, err := rt.backends[k].BatchLookupOrInsert(ctx, gpairs)
		if err != nil {
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
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
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
			return nil, firstErr
		}
		return nil, fmt.Errorf("core: batch: %w", firstErr)
	}
	// Reconcile only the misses whose owner moved mid-batch (see
	// reconcileMiss): a miss whose owner is unchanged is final, and
	// probing again would read back this batch's own insert as a spurious
	// duplicate, dropping the chunk from the upload plan.
	if c.route.Load().gen != rt.gen {
		for i, r := range results {
			if r.Exists {
				continue
			}
			queried := rt.table.Nodes()[rt.table.Owner(int(g.points[i]))]
			if c.ownerMoved(pairs[i].FP, queried) {
				results[i] = c.reconcileMiss(ctx, pairs[i].FP, pairs[i].Val, r)
			}
		}
	}
	return results, nil
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

// RebalanceStats summarizes a migration pass.
type RebalanceStats struct {
	// Scanned is the number of entries examined. An entry relocated early
	// in the pass is examined again when its new home is scanned, so
	// Scanned can exceed the cluster's entry count.
	Scanned int
	// Moved is the number of entries relocated to a new owner.
	Moved int
	// Skipped counts backends that do not support migration.
	Skipped int
}

// Rebalance moves every entry to its current owner node. Call it after
// AddNode to spread existing fingerprints onto the new member (the paper's
// "dynamic resource scaling" future work). Lookups remain correct during
// the pass: an entry is inserted at its new owner before it is removed
// from the old one. ctx is checked between entries, so a cancelled
// rebalance stops promptly and leaves the index consistent (entries moved
// so far are complete; the rest stay where they were).
func (c *Cluster) Rebalance(ctx context.Context) (RebalanceStats, error) {
	c.mu.RLock()
	backends := make([]Backend, 0, len(c.backends))
	for _, b := range c.backends {
		backends = append(backends, b)
	}
	c.mu.RUnlock()

	var stats RebalanceStats
	for _, b := range backends {
		m, ok := b.(Migrator)
		if !ok {
			stats.Skipped++
			continue
		}
		moved, scanned, err := c.migrateFrom(ctx, b.ID(), m, false)
		if err != nil {
			return stats, err
		}
		stats.Moved += moved
		stats.Scanned += scanned
	}
	return stats, nil
}

// JoinNode adds a backend with minimal duplicate-detection disruption: it
// first copies the entries the new node will own onto it (computed against
// a shadow ring), then flips routing, then cleans relocated entries off
// their old owners. Unlike AddNode+Rebalance, fingerprints already stored
// are continuously detected as duplicates throughout the join (only
// entries inserted during the copy window can be re-uploaded once).
//
// Cancelling ctx before routing flips aborts the join (the joiner holds
// copies that are simply never routed to); after the flip, the cleanup
// pass stops early and the leftover duplicates cost at most redundant
// storage, never wrong answers.
func (c *Cluster) JoinNode(ctx context.Context, b Backend) (RebalanceStats, error) {
	newID := b.ID()

	// Build the shadow ring: current members plus the joiner.
	c.mu.RLock()
	if _, dup := c.backends[newID]; dup {
		c.mu.RUnlock()
		return RebalanceStats{}, fmt.Errorf("core: duplicate backend %q", newID)
	}
	shadow := ring.New(c.vnodes)
	for id := range c.backends {
		if err := shadow.Add(id); err != nil {
			c.mu.RUnlock()
			return RebalanceStats{}, err
		}
	}
	members := make([]Backend, 0, len(c.backends))
	for _, m := range c.backends {
		members = append(members, m)
	}
	c.mu.RUnlock()
	if err := shadow.Add(newID); err != nil {
		return RebalanceStats{}, err
	}

	// Phase 1: copy soon-to-move entries to the joiner while routing is
	// untouched (lookups still find them on their current owners).
	var stats RebalanceStats
	for _, m := range members {
		mig, ok := m.(Migrator)
		if !ok {
			stats.Skipped++
			continue
		}
		type entry struct {
			fp  fingerprint.Fingerprint
			val Value
		}
		var moving []entry
		var lookupErr error
		err := mig.Entries(ctx, func(fp fingerprint.Fingerprint, val Value) bool {
			stats.Scanned++
			if lookupErr = ctx.Err(); lookupErr != nil {
				return false
			}
			owner, lerr := shadow.Lookup(fp)
			if lerr != nil {
				lookupErr = lerr
				return false
			}
			if owner == newID {
				moving = append(moving, entry{fp, val})
			}
			return true
		})
		if err == nil {
			err = lookupErr
		}
		if err != nil {
			return stats, fmt.Errorf("core: join copy from %s: %w", m.ID(), err)
		}
		for _, e := range moving {
			if err := b.Insert(ctx, e.fp, e.val); err != nil {
				return stats, fmt.Errorf("core: join copy %s: %w", e.fp.Short(), err)
			}
			stats.Moved++
		}
	}

	// Phase 2: flip routing.
	c.mu.Lock()
	err := c.addLocked(b)
	c.mu.Unlock()
	if err != nil {
		return stats, err
	}

	// Phase 3: remove relocated entries from their old owners (and pick
	// up anything inserted during the copy window).
	for _, m := range members {
		mig, ok := m.(Migrator)
		if !ok {
			continue
		}
		moved, scanned, err := c.migrateFrom(ctx, m.ID(), mig, false)
		if err != nil {
			return stats, err
		}
		stats.Scanned += scanned
		_ = moved // already counted in phase 1 for pre-copied entries
	}
	return stats, nil
}

// DrainNode migrates every entry off the named node and detaches it from
// the cluster (graceful decommission). The backend itself is not closed;
// its owner closes it after the drain. A cancelled ctx stops the copy
// mid-pass: the node is already out of the ring (routing flips first) but
// stays attached until every entry has moved, so un-migrated entries are
// never orphaned and a later Rebalance can finish the job.
func (c *Cluster) DrainNode(ctx context.Context, id ring.NodeID) (RebalanceStats, error) {
	c.mu.Lock()
	b, ok := c.backends[id]
	if !ok {
		c.mu.Unlock()
		return RebalanceStats{}, fmt.Errorf("core: unknown backend %q", id)
	}
	m, isMigrator := b.(Migrator)
	if !isMigrator {
		c.mu.Unlock()
		return RebalanceStats{}, fmt.Errorf("core: backend %q does not support migration", id)
	}
	if len(c.backends) == 1 {
		c.mu.Unlock()
		return RebalanceStats{}, errors.New("core: cannot drain the last node")
	}
	// Take the node out of the ring first so migrated entries route to
	// the surviving members; keep the backend reachable for the copy.
	if err := c.ring.Remove(id); err != nil {
		c.mu.Unlock()
		return RebalanceStats{}, err
	}
	c.publishLocked()
	c.mu.Unlock()

	moved, scanned, err := c.migrateFrom(ctx, id, m, true)
	stats := RebalanceStats{Moved: moved, Scanned: scanned}
	if err != nil {
		return stats, err
	}
	c.mu.Lock()
	delete(c.backends, id)
	c.mu.Unlock()
	return stats, nil
}

// migrateFrom moves entries off one backend. When all is true every entry
// moves (drain); otherwise only entries whose owner is no longer source.
// ctx is checked between entries.
func (c *Cluster) migrateFrom(ctx context.Context, source ring.NodeID, m Migrator, all bool) (moved, scanned int, err error) {
	// Collect first: inserting into peers while ranging the same store
	// would mutate it mid-iteration.
	type entry struct {
		fp  fingerprint.Fingerprint
		val Value
	}
	var toMove []entry
	rangeErr := m.Entries(ctx, func(fp fingerprint.Fingerprint, val Value) bool {
		scanned++
		if err = ctx.Err(); err != nil {
			return false
		}
		if all {
			toMove = append(toMove, entry{fp, val})
			return true
		}
		owner, lerr := c.Owner(fp)
		if lerr != nil {
			err = lerr
			return false
		}
		if owner != source {
			toMove = append(toMove, entry{fp, val})
		}
		return true
	})
	if err == nil {
		err = rangeErr
	}
	if err != nil {
		return moved, scanned, fmt.Errorf("core: migrate from %s: %w", source, err)
	}

	for _, e := range toMove {
		if cerr := ctx.Err(); cerr != nil {
			return moved, scanned, fmt.Errorf("core: migrate from %s: %w", source, cerr)
		}
		targets, terr := c.routingFor(e.fp)
		if terr != nil {
			return moved, scanned, terr
		}
		for _, t := range targets {
			if t.ID() == source {
				continue
			}
			if ierr := t.Insert(ctx, e.fp, e.val); ierr != nil {
				return moved, scanned, fmt.Errorf("core: migrate %s to %s: %w", e.fp.Short(), t.ID(), ierr)
			}
		}
		if _, rerr := m.Remove(e.fp); rerr != nil {
			return moved, scanned, fmt.Errorf("core: migrate %s off %s: %w", e.fp.Short(), source, rerr)
		}
		moved++
	}
	return moved, scanned, nil
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
