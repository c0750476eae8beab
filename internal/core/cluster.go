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
	// membership change publishes a new one under mu. superseded holds the
	// replaced snapshots that calls may still route on (see hold).
	route      atomic.Pointer[routing]
	superseded []*routing

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
	// ops counts the calls routing on the snapshot (see hold).
	ops atomic.Int64
}

// publishLocked swaps in the routing snapshot for the ring and backends as
// they are now. Callers hold c.mu for writing (or own c exclusively).
func (c *Cluster) publishLocked() {
	rt := routeOn(c.ring.Table(), c.backends)
	if old := c.route.Load(); old != nil {
		rt.gen = old.gen + 1
		c.superseded = append(slices.DeleteFunc(c.superseded, func(o *routing) bool { return o.ops.Load() == 0 }), old)
	}
	c.route.Store(rt)
	c.signalMembershipChange()
}

// hold loads the routing snapshot and counts the caller on it until the
// caller's ops.Add(-1). A snapshot replaced between the load and the count
// is let go and the new one taken, so quiesce, which a membership change
// runs after its publish, sees every call that may still ask the nodes an
// older table names.
func (c *Cluster) hold() *routing {
	for {
		rt := c.route.Load()
		rt.ops.Add(1)
		if c.route.Load() == rt {
			return rt
		}
		rt.ops.Add(-1)
	}
}

// quiesce waits until no call routes on a superseded snapshot. A move
// removes nothing before it: a call that routed on the table before a flip
// could otherwise miss an entry on the node it asks — and, once a second
// flip hands the range back to that node, insert it there again as "new",
// where no reconciliation can tell.
func (c *Cluster) quiesce(ctx context.Context) error {
	c.mu.RLock()
	old := slices.Clone(c.superseded)
	c.mu.RUnlock()
	for _, rt := range old {
		for rt.ops.Load() > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// routeOn is the routing of table over the named backends.
func routeOn(table *ring.Table, backends map[ring.NodeID]Backend) *routing {
	rt := &routing{table: table, backends: make([]Backend, len(table.Nodes()))}
	for i, id := range table.Nodes() {
		rt.backends[i] = backends[id]
	}
	return rt
}

// shadowLocked is the routing the ring's members would publish with join
// added (when not nil) and leave taken out: the table a membership change
// copies ahead to before it flips. Caller holds c.mu.
func (c *Cluster) shadowLocked(join Backend, leave ring.NodeID) (*routing, error) {
	r := ring.NewReplicated(c.vnodes, c.replicas)
	members := make(map[ring.NodeID]Backend, len(c.backends)+1)
	for _, id := range c.ring.Nodes() {
		if id != leave {
			members[id] = c.backends[id]
		}
	}
	if join != nil {
		members[join.ID()] = join
	}
	for id := range members {
		if err := r.Add(id); err != nil {
			return nil, err
		}
	}
	return routeOn(r.Table(), members), nil
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
	rt := c.hold()
	defer rt.ops.Add(-1)
	targets, err := rt.replicasFor(fp)
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
//   - still missing: keep "new" and heal placement by filling the hole on
//     the current owner, so future lookups find the entry where routing
//     looks. Only a hole: a racing call may have created the entry there
//     since the probe, and its value is the one that call answered.
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
			_, _ = owner.LookupOrInsert(ctx, fp, val)
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
	rt := c.hold()
	defer rt.ops.Add(-1)
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

// JoinNode adds a backend with no duplicate-detection disruption: it first
// copies the entries the new node will hold onto it (placed by a shadow of
// the table to come) while routing is untouched, then flips routing, then
// moves what the old nodes no longer hold and removes it from them (picking
// up what was inserted during the copy). Fingerprints already stored are
// detected as duplicates throughout the join; one first inserted on its old
// node during the copy can be answered "new" once, by a call routed after
// the flip, until the move hands it over.
//
// Cancelling ctx before routing flips aborts the join (the joiner holds
// copies that are simply never routed to); after the flip, the move stops
// early and the entries left on their old nodes cost storage, never wrong
// answers.
func (c *Cluster) JoinNode(ctx context.Context, b Backend) (RebalanceStats, error) {
	var stats RebalanceStats
	c.mu.RLock()
	if _, dup := c.backends[b.ID()]; dup {
		c.mu.RUnlock()
		return stats, fmt.Errorf("core: duplicate backend %q", b.ID())
	}
	shadow, err := c.shadowLocked(b, "")
	var sources []Backend
	for _, id := range c.ring.Nodes() {
		if _, ok := c.backends[id].(Migrator); ok {
			sources = append(sources, c.backends[id])
		} else {
			stats.Skipped++
		}
	}
	c.mu.RUnlock()
	if err != nil {
		return stats, err
	}
	for _, m := range sources {
		if _, _, err := c.move(ctx, m.ID(), m.(Migrator), shadow, false, &stats); err != nil {
			return stats, err
		}
	}
	c.mu.Lock()
	err = c.addLocked(b)
	c.mu.Unlock()
	if err != nil {
		return stats, err
	}
	for _, m := range sources {
		if _, _, err := c.move(ctx, m.ID(), m.(Migrator), c.route.Load(), true, &stats); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// DrainNode moves every entry off the named node and detaches it from the
// cluster (graceful decommission), in JoinNode's three steps: it copies
// every entry to the nodes a shadow of the table without it places the
// entry on while routing still sends the node's range here, then flips
// routing, then moves everything again — picking up what was inserted
// during the copy — removing each entry once its new nodes hold it
// durably. A lookup routed after the flip so finds an entry where it looks
// (as for JoinNode, one inserted during the copy arrives with the move).
// The backend itself is not closed; its owner closes it after the drain.
//
// A cancelled ctx before the flip aborts the drain. After it, the move
// stops mid-pass and the node, out of the ring, stays attached with what
// has not moved yet; calling DrainNode again on it resumes the move.
func (c *Cluster) DrainNode(ctx context.Context, id ring.NodeID) (RebalanceStats, error) {
	var stats RebalanceStats
	c.mu.RLock()
	b, ok := c.backends[id]
	inRing := slices.Contains(c.ring.Nodes(), id)
	last := c.ring.Len() == 1
	var shadow *routing
	var err error
	if ok && inRing && !last {
		shadow, err = c.shadowLocked(nil, id)
	}
	c.mu.RUnlock()
	m, isMigrator := b.(Migrator)
	switch {
	case !ok:
		return stats, fmt.Errorf("core: unknown backend %q", id)
	case !isMigrator:
		return stats, fmt.Errorf("core: backend %q does not support migration", id)
	case inRing && last:
		return stats, errors.New("core: cannot drain the last node")
	case err != nil:
		return stats, err
	}
	if inRing {
		if _, _, err := c.move(ctx, id, m, shadow, false, &stats); err != nil {
			return stats, err
		}
		// Take the node out of the ring so moved entries route to the
		// surviving members; keep the backend attached for the move.
		c.mu.Lock()
		err := c.ring.Remove(id)
		if err == nil {
			c.publishLocked()
		}
		c.mu.Unlock()
		if err != nil {
			return stats, fmt.Errorf("core: drain %s: %w", id, err)
		}
	}
	if _, _, err := c.move(ctx, id, m, c.route.Load(), true, &stats); err != nil {
		return stats, err
	}
	c.mu.Lock()
	delete(c.backends, id)
	c.mu.Unlock()
	return stats, nil
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
// and is durable on return.
//
// A copy (remove false) takes each entry the source holds under the table
// in force; to is the shadow of a table about to be published, or for
// anti-entropy the table in force. Anything else on the source is a stray
// that a call routed on a superseded table left behind; a move takes it. A
// move (remove true) runs under to, the table in force, once no call routes
// on an older one (quiesce): it takes each entry the source no longer
// holds, and the source removes it once its last target's page has
// returned, if the table in force still does not place it there.
func (c *Cluster) move(ctx context.Context, id ring.NodeID, src Migrator, to *routing, remove bool, st *RebalanceStats) (sent, created int, err error) {
	rt := to
	if remove {
		if err := c.quiesce(ctx); err != nil {
			return 0, 0, fmt.Errorf("core: move from %s: %w", id, err)
		}
	} else {
		rt = c.route.Load()
	}
	if to.table.Len() == 0 {
		return 0, 0, ring.ErrEmpty
	}
	buckets := make([][]Pair, len(to.backends))
	err = src.Entries(ctx, func(fp fingerprint.Fingerprint, val Value) bool {
		st.Scanned++
		if held := rt.places(fp, id); held == remove {
			return true // a copy takes what the source holds, a move the rest
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
			rt = c.route.Load()
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
