package core

// Replication: the machinery that makes Replicas > 1 mean durable copies.
//
// Three paths keep the owner's successor set converged on the same entries,
// all of them through ApplyRepair, which is durable on return: a write-back
// mirror writes the pairs it creates through to its store instead of
// acking them from its cache.
//
//   - Quorum fan-out (replicateBatch): every insert that creates an entry
//     on its deciding node is replicated to the remaining replicas as one
//     ApplyRepair batch per mirror, and the insert does not acknowledge
//     until WriteQuorum replicas hold it. A mirror's ack is a durable ack,
//     so a quorum-acked insert survives the loss of any quorum-minus-one
//     nodes (a write-back decider's own copy is in its write-back window
//     until its next wave). An insert that
//     cannot reach its quorum (mirrors down) does NOT fail: the deciding
//     node's copy is already durable, so failing would poison the index —
//     a retry would be answered "duplicate" and the client would skip
//     uploading a chunk no one stored. Instead the insert degrades to the
//     safe "new" answer (counted in QuorumFailures), the client uploads,
//     and the repair queue / anti-entropy converge replication.
//   - Read-repair (enqueueRepair from the lookup paths): when a lookup
//     observes divergent answers — one replica hits while another missed —
//     the missing replicas are backfilled asynchronously through the repair
//     queue.
//   - Anti-entropy (AntiEntropy / the background sweeper): a full sweep
//     that enumerates every node's entries and re-replicates each to its
//     current successor set, healing under-replicated ranges after a
//     membership change or a wiped disk.
//
// Repair traffic is isolated from foreground load: it runs on a single
// background worker in coalesced batches, so a burst of read-repairs
// cannot multiply foreground latency.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/ring"
)

// replCounters holds the cluster's replication counters as atomics: the
// fan-out and repair paths bump them from many goroutines without taking
// the cluster lock.
type replCounters struct {
	fannedWrites        atomic.Uint64
	quorumWaits         atomic.Uint64
	quorumFailures      atomic.Uint64
	readRepairs         atomic.Uint64
	repairsQueued       atomic.Uint64
	repairsApplied      atomic.Uint64
	repairsDropped      atomic.Uint64
	antiEntropyRuns     atomic.Uint64
	antiEntropyScanned  atomic.Uint64
	antiEntropyChecked  atomic.Uint64
	antiEntropyRepaired atomic.Uint64
}

// RepairApplier is implemented by backends that support the dedicated
// repair/backfill verb (local *Node, and RPC clients). ApplyRepair has exactly BatchLookupOrInsert semantics —
// existing entries keep their stored value, missing ones are created, and
// the per-pair results report which was which, and pairs is only valid
// until the call returns — but the receiver accounts the traffic as
// replication repair rather than foreground lookups.
type RepairApplier interface {
	ApplyRepair(ctx context.Context, pairs []Pair) ([]LookupResult, error)
}

var _ RepairApplier = (*Node)(nil)

// applyRepair sends a repair batch to a backend, using the dedicated verb
// when the backend supports it and falling back to BatchLookupOrInsert
// (identical presence semantics) for plain backends.
func applyRepair(ctx context.Context, b Backend, pairs []Pair) ([]LookupResult, error) {
	if ra, ok := b.(RepairApplier); ok {
		return ra.ApplyRepair(ctx, pairs)
	}
	return b.BatchLookupOrInsert(ctx, pairs)
}

// ReplicationStats snapshots the cluster's replication counters.
type ReplicationStats struct {
	// FannedWrites counts replica writes fanned out by inserts (one per
	// pair per mirror).
	FannedWrites uint64
	// QuorumWaits counts inserts that waited for mirror acks to reach the
	// write quorum; QuorumFailures counts inserts that could not meet the
	// quorum and degraded to the safe "new" answer (under-replicated until
	// the repair queue or anti-entropy converges them).
	QuorumWaits    uint64
	QuorumFailures uint64
	// ReadRepairs counts divergences observed by lookups (a replica
	// missing an entry another replica holds) that triggered a backfill.
	ReadRepairs uint64
	// RepairsQueued/Applied/Dropped track the async repair queue. Dropped
	// covers overflow, repair errors, and tasks invalidated by membership
	// changes; the anti-entropy sweep is the backstop for all of them.
	RepairsQueued  uint64
	RepairsApplied uint64
	RepairsDropped uint64
	// AntiEntropy* describe completed sweeps: entries enumerated, replica
	// checks issued, and entries that were actually missing on a replica
	// and got re-replicated.
	AntiEntropyRuns     uint64
	AntiEntropyScanned  uint64
	AntiEntropyChecked  uint64
	AntiEntropyRepaired uint64
}

// Replicated reports whether the cluster keeps more than one copy of
// each entry — i.e. whether the quorum/repair machinery is active.
func (c *Cluster) Replicated() bool { return c.replicas > 1 }

// ReplicationStats returns the cluster's replication counters.
func (c *Cluster) ReplicationStats() ReplicationStats {
	return ReplicationStats{
		FannedWrites:        c.repl.fannedWrites.Load(),
		QuorumWaits:         c.repl.quorumWaits.Load(),
		QuorumFailures:      c.repl.quorumFailures.Load(),
		ReadRepairs:         c.repl.readRepairs.Load(),
		RepairsQueued:       c.repl.repairsQueued.Load(),
		RepairsApplied:      c.repl.repairsApplied.Load(),
		RepairsDropped:      c.repl.repairsDropped.Load(),
		AntiEntropyRuns:     c.repl.antiEntropyRuns.Load(),
		AntiEntropyScanned:  c.repl.antiEntropyScanned.Load(),
		AntiEntropyChecked:  c.repl.antiEntropyChecked.Load(),
		AntiEntropyRepaired: c.repl.antiEntropyRepaired.Load(),
	}
}

const (
	// repairQueueCap bounds the coalesced repair queue; beyond it new
	// tasks are dropped (and counted) — anti-entropy heals what a dropped
	// repair would have.
	repairQueueCap = 8192
	// repairBatchSize is the largest ApplyRepair batch the worker sends
	// per target per drain round.
	repairBatchSize = 256
)

// repairKey coalesces repair tasks: at most one pending backfill per
// (target, fingerprint), carrying the latest value.
type repairKey struct {
	target ring.NodeID
	fp     fingerprint.Fingerprint
}

// enqueueRepair schedules an async backfill of fp -> val onto target.
// No-op when replication is off (no worker). Duplicate tasks coalesce.
func (c *Cluster) enqueueRepair(target ring.NodeID, fp fingerprint.Fingerprint, val Value) {
	if c.repairWake == nil {
		return
	}
	c.repairMu.Lock()
	k := repairKey{target, fp}
	if _, dup := c.repairTasks[k]; !dup {
		if len(c.repairOrder) >= repairQueueCap {
			c.repairMu.Unlock()
			c.repl.repairsDropped.Add(1)
			return
		}
		c.repairOrder = append(c.repairOrder, k)
		c.repl.repairsQueued.Add(1)
	}
	c.repairTasks[k] = val
	c.repairMu.Unlock()
	select {
	case c.repairWake <- struct{}{}:
	default:
	}
}

// repairWorker is the single background goroutine that drains the repair
// queue in coalesced per-target batches, keeping repair I/O off the
// foreground paths.
func (c *Cluster) repairWorker(ctx context.Context) {
	defer c.bgWg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.repairWake:
		}
		for c.drainRepairBatch(ctx) {
			if ctx.Err() != nil {
				return
			}
		}
	}
}

// drainRepairBatch pops up to repairBatchSize tasks, validates each against
// the current ring, and applies them grouped per target. Returns true if
// tasks remain queued.
func (c *Cluster) drainRepairBatch(ctx context.Context) bool {
	c.repairMu.Lock()
	n := len(c.repairOrder)
	if n == 0 {
		c.repairMu.Unlock()
		return false
	}
	if n > repairBatchSize {
		n = repairBatchSize
	}
	type task struct {
		key repairKey
		val Value
	}
	tasks := make([]task, 0, n)
	for _, k := range c.repairOrder[:n] {
		tasks = append(tasks, task{k, c.repairTasks[k]})
		delete(c.repairTasks, k)
	}
	c.repairOrder = append(c.repairOrder[:0:0], c.repairOrder[n:]...)
	c.repairBusy = true
	c.repairMu.Unlock()

	// Group valid tasks per target. A task whose target left the cluster,
	// or is no longer in the fingerprint's replica set (the entry's range
	// moved — e.g. the key was migrated or removed), is dropped: applying
	// it could resurrect an entry on a node that just migrated it off. The
	// repairs are routed on rt, so a node that has moved past it refuses
	// them, and they are dropped too.
	rt := c.route.Load()
	routed := WithRouteGen(ctx, rt.rec.Gen)
	groups := make(map[ring.NodeID][]Pair)
	backends := make(map[ring.NodeID]Backend)
	var dropped uint64
	for _, t := range tasks {
		replicas, _ := rt.replicasFor(t.key.fp) // empty ring: no replicas, dropped
		valid := false
		for _, b := range replicas {
			if b.ID() == t.key.target {
				backends[t.key.target], valid = b, true
				break
			}
		}
		if !valid {
			dropped++
			continue
		}
		groups[t.key.target] = append(groups[t.key.target], Pair{FP: t.key.fp, Val: t.val})
	}

	for id, pairs := range groups {
		if _, err := applyRepair(routed, backends[id], pairs); err != nil {
			// Best-effort: a failed repair is dropped, not retried — the
			// anti-entropy sweep is the backstop.
			dropped += uint64(len(pairs))
			continue
		}
		c.repl.repairsApplied.Add(uint64(len(pairs)))
	}
	if dropped > 0 {
		c.repl.repairsDropped.Add(dropped)
	}

	c.repairMu.Lock()
	c.repairBusy = false
	more := len(c.repairOrder) > 0
	c.repairMu.Unlock()
	return more
}

// readRepair backfills fp -> val onto the replicas observed missing it.
func (c *Cluster) readRepair(missers []Backend, fp fingerprint.Fingerprint, val Value) {
	if len(missers) == 0 {
		return
	}
	for _, m := range missers {
		c.enqueueRepair(m.ID(), fp, val)
	}
	c.repl.readRepairs.Add(uint64(len(missers)))
}

// replicateBatch fans the pairs one node's batch freshly created (the misses
// in rs) to their other replicas as a single ApplyRepair wave per mirror
// node, so replication costs one extra group-commit wave per replica, not a
// per-key fan-out. pairs is what the node decided, indices maps its positions
// to the caller's results slice, points gives each input pair's ring
// position, and decided is the rank of the deciding node in every pair's
// successor list under rt (0: the owner; above it after a fail-over): a
// pair's mirrors are its successors of every other rank.
//
// A mirror that reports a pair already present under its own locator reveals
// a divergence: the mirror's copy predates this insert (the decider's miss
// was a wiped disk, not a first sighting), so that pair's result is flipped
// to the mirror's duplicate answer (a wrong "new" costs one redundant
// upload; a wrong "duplicate" would lose data, and here the mirror's copy
// proves the chunk is stored).
//
// The call returns as soon as every created pair has met its write quorum —
// waves still in the air past that point complete asynchronously and account
// for themselves, so batch latency is set by the quorum, not the slowest
// replica; that is why a wave carries its own copy of its pairs, never a
// slice of the caller's scratch. Failed waves are queued for async repair.
//
// replicateBatch never fails the batch: by the time it runs, the deciding
// node holds the entries durably, and an error here would be
// indistinguishable — on retry — from a stored duplicate, making the client
// skip the upload of a chunk that was never stored. A pair left below its
// quorum degrades instead: QuorumFailures is bumped, the safe "new" answer
// stands, and the missing mirrors converge through the repair queue and
// anti-entropy.
func (c *Cluster) replicateBatch(ctx context.Context, rt *routing, points []int32, pairs []Pair, indices []int32, rs []LookupResult, results []LookupResult, decided int) {
	type wave struct {
		backend Backend
		pairs   []Pair
		ks      []int // group-local pair positions
	}
	// Every position's successor set has the same size, so one clamp of the
	// write quorum to it (the cluster may be smaller than Replicas) serves
	// the whole group.
	required := min(c.quorum, rt.table.Width())
	waves := make([]*wave, len(rt.backends))
	var fanned uint64
	nwaves, missCount := 0, 0
	for k, r := range rs {
		if r.Exists {
			continue
		}
		missCount++
		for rank, m := range rt.table.Successors(int(points[indices[k]])) {
			if rank == decided {
				continue
			}
			w := waves[m]
			if w == nil {
				w = &wave{backend: rt.backends[m]}
				waves[m] = w
				nwaves++
			}
			w.pairs = append(w.pairs, pairs[k])
			w.ks = append(w.ks, k)
			fanned++
		}
	}
	if missCount == 0 {
		return
	}
	c.repl.fannedWrites.Add(fanned)
	// pending counts the created pairs still short of their write quorum;
	// once it reaches zero the batch is acked and the remaining waves are
	// stragglers (their duplicate-flips are dropped — the safe direction).
	pending := 0
	if required > 1 {
		pending = missCount
		c.repl.quorumWaits.Add(uint64(missCount))
	}

	// Wave goroutines never touch acks or results — both are owned by this
	// goroutine, which may hand results back to the caller while straggler
	// waves are still in flight. Outcomes flow through a channel buffered
	// for every wave, so stragglers never block or leak.
	type outcome struct {
		w   *wave
		out []LookupResult // nil when the wave failed
	}
	ch := make(chan outcome, nwaves)
	for _, w := range waves {
		if w == nil {
			continue
		}
		go func() {
			out, err := applyRepair(ctx, w.backend, w.pairs)
			if err != nil || len(out) != len(w.pairs) {
				for _, p := range w.pairs {
					c.enqueueRepair(w.backend.ID(), p.FP, p.Val)
				}
				ch <- outcome{w: w}
				return
			}
			ch <- outcome{w: w, out: out}
		}()
	}

	acks := make([]int, len(pairs)) // mirror acks per group-local pair
	for seen := 0; pending > 0 && seen < nwaves; seen++ {
		o := <-ch
		if o.out == nil {
			continue
		}
		for i, r2 := range o.out {
			k := o.w.ks[i]
			acks[k]++
			if 1+acks[k] == required {
				pending--
			}
			// A mirror that already held the pair proves the decider's
			// miss was divergence.
			if r2.Exists && !results[indices[k]].Exists {
				results[indices[k]] = r2
				c.repl.readRepairs.Add(1)
			}
		}
	}
	// Every wave answered and some pairs are still below quorum: degrade
	// instead of failing — their repairs are queued.
	if pending > 0 {
		c.repl.quorumFailures.Add(uint64(pending))
	}
}

// AntiEntropyStats summarizes one anti-entropy sweep.
type AntiEntropyStats struct {
	// Sources is the number of backends whose entries were enumerated;
	// Skipped counts backends that cannot enumerate (e.g. RPC clients —
	// their node's own cluster view sweeps them).
	Sources int
	Skipped int
	// Scanned is the number of entries enumerated across sources; Checked
	// the number of (entry, replica) checks issued; Repaired the number of
	// checks that found the entry missing and re-replicated it.
	Scanned  int
	Checked  int
	Repaired int
}

// AntiEntropy walks the ring and re-replicates under-replicated ranges:
// every entry a migratable backend holds under the table in force is
// pushed (with keep-existing semantics) to the other replicas that table
// names, through the membership mover, so a cluster that shrank, grew, or
// had a disk wiped converges back to full replication. The background
// sweeper (always running when Replicas > 1) calls this after membership
// changes, and on a periodic tick when ClusterConfig.AntiEntropyInterval is
// set; it is also safe to call manually at any time. ctx cancels the sweep
// between batches.
func (c *Cluster) AntiEntropy(ctx context.Context) (AntiEntropyStats, error) {
	var st AntiEntropyStats
	if c.replicas <= 1 {
		return st, nil
	}
	c.mu.RLock()
	sources := make([]Backend, 0, len(c.backends))
	for _, b := range c.backends {
		sources = append(sources, b)
	}
	c.mu.RUnlock()

	var walked RebalanceStats
	rt := c.route.Load()
	for _, src := range sources {
		m, ok := src.(Migrator)
		if !ok {
			st.Skipped++
			continue
		}
		st.Sources++
		sent, created, err := c.move(ctx, src.ID(), m, rt, rt, false, &walked)
		st.Checked += sent
		st.Repaired += created
		if err != nil {
			return st, fmt.Errorf("core: anti-entropy: %w", err)
		}
	}
	st.Scanned = walked.Scanned
	c.repl.antiEntropyRuns.Add(1)
	c.repl.antiEntropyScanned.Add(uint64(st.Scanned))
	c.repl.antiEntropyChecked.Add(uint64(st.Checked))
	c.repl.antiEntropyRepaired.Add(uint64(st.Repaired))
	return st, nil
}

// antiEntropyLoop is the background sweeper: it runs AntiEntropy
// immediately after a membership change (every publish of a new table
// signals aeWake), so a shrunk cluster starts healing without
// waiting out the interval, and — when an interval is configured — on
// every periodic tick. It runs whenever Replicas > 1: the repair queue
// drops overflow and failed repairs on the promise that a sweep will
// heal them, so at minimum the membership-triggered sweeps must exist.
func (c *Cluster) antiEntropyLoop(ctx context.Context, interval time.Duration) {
	defer c.bgWg.Done()
	var tick <-chan time.Time // nil (blocks forever) without an interval
	if interval > 0 {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
		case <-c.aeWake:
		}
		// Sweep errors are not fatal to the loop: the next trigger retries.
		_, _ = c.AntiEntropy(ctx)
	}
}

// signalMembershipChange wakes the anti-entropy sweeper (if running).
// Callers hold c.mu.
func (c *Cluster) signalMembershipChange() {
	if c.aeWake == nil {
		return
	}
	select {
	case c.aeWake <- struct{}{}:
	default:
	}
}
