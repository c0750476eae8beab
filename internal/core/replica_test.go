package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

// fpOwnedBy searches for a fingerprint whose ring owner is the wanted node.
func fpOwnedBy(t *testing.T, c *Cluster, want ring.NodeID) fingerprint.Fingerprint {
	t.Helper()
	return fpOwnedBy2(t, c, want, fingerprint.Fingerprint{})
}

// fpOwnedBy2 is fpOwnedBy excluding one fingerprint already in use.
func fpOwnedBy2(t *testing.T, c *Cluster, want ring.NodeID, not fingerprint.Fingerprint) fingerprint.Fingerprint {
	t.Helper()
	for i := uint64(0); i < 10_000; i++ {
		fp := fingerprint.FromUint64(i)
		if fp == not {
			continue
		}
		if owner, err := c.Owner(fp); err == nil && owner == want {
			return fp
		}
	}
	t.Fatalf("no spare fingerprint owned by %s in 10k tries", want)
	return fingerprint.Fingerprint{}
}

// revive undoes kill: the backend answers again.
func (f *flakyBackend) revive() {
	f.mu.Lock()
	f.dead = false
	f.mu.Unlock()
}

// TestReplicatedInsertReachesAllReplicas: with Replicas=2 every acked
// insert must be present on both the owner and its successor — the write
// path's core durability invariant.
func TestReplicatedInsertReachesAllReplicas(t *testing.T) {
	c := newTestCluster(t, 3, ClusterConfig{Replicas: 2})
	ctx := context.Background()

	const n = 200
	for i := 0; i < n; i++ {
		r, err := c.LookupOrInsert(ctx, fingerprint.FromUint64(uint64(i)), Value(i+1))
		if err != nil {
			t.Fatalf("LookupOrInsert %d: %v", i, err)
		}
		if r.Exists {
			t.Fatalf("fresh fingerprint %d reported existing", i)
		}
	}
	for i := 0; i < n; i++ {
		fp := fingerprint.FromUint64(uint64(i))
		replicas, err := c.routingFor(fp)
		if err != nil {
			t.Fatalf("routingFor: %v", err)
		}
		if len(replicas) != 2 {
			t.Fatalf("fingerprint %d has %d replicas, want 2", i, len(replicas))
		}
		for _, b := range replicas {
			r, err := b.Lookup(ctx, fp)
			if err != nil {
				t.Fatalf("replica %s lookup %d: %v", b.ID(), i, err)
			}
			if !r.Exists || r.Value != Value(i+1) {
				t.Fatalf("replica %s of fingerprint %d = %+v, want exists value %d", b.ID(), i, r, i+1)
			}
		}
	}

	rs := c.ReplicationStats()
	if rs.FannedWrites != n {
		t.Fatalf("FannedWrites = %d, want %d (one mirror per insert)", rs.FannedWrites, n)
	}
	if rs.QuorumWaits != n || rs.QuorumFailures != 0 {
		t.Fatalf("quorum stats = %d waits / %d failures, want %d / 0", rs.QuorumWaits, rs.QuorumFailures, n)
	}
}

// TestBatchReplicatedInsertReachesAllReplicas exercises the batched write
// path: mirror writes ride one repair wave per mirror node, and every
// acked pair lands on its full replica set.
func TestBatchReplicatedInsertReachesAllReplicas(t *testing.T) {
	c := newTestCluster(t, 3, ClusterConfig{Replicas: 2})
	ctx := context.Background()

	const n = 300
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{FP: fingerprint.FromUint64(uint64(i)), Val: Value(i + 1)}
	}
	rs, err := c.BatchLookupOrInsert(ctx, pairs)
	if err != nil {
		t.Fatalf("BatchLookupOrInsert: %v", err)
	}
	for i, r := range rs {
		if r.Exists {
			t.Fatalf("fresh pair %d reported existing", i)
		}
	}
	for _, p := range pairs {
		replicas, err := c.routingFor(p.FP)
		if err != nil {
			t.Fatalf("routingFor: %v", err)
		}
		for _, b := range replicas {
			r, err := b.Lookup(ctx, p.FP)
			if err != nil {
				t.Fatalf("replica %s lookup: %v", b.ID(), err)
			}
			if !r.Exists || r.Value != p.Val {
				t.Fatalf("replica %s of %s = %+v, want exists value %d", b.ID(), p.FP.Short(), r, p.Val)
			}
		}
	}
	// A second pass is pure duplicates, answered with the original values
	// and without any further fan-out.
	fanned := c.ReplicationStats().FannedWrites
	rs, err = c.BatchLookupOrInsert(ctx, pairs)
	if err != nil {
		t.Fatalf("duplicate batch: %v", err)
	}
	for i, r := range rs {
		if !r.Exists || r.Value != Value(i+1) {
			t.Fatalf("duplicate %d = %+v, want exists value %d", i, r, i+1)
		}
	}
	if got := c.ReplicationStats().FannedWrites; got != fanned {
		t.Fatalf("duplicate batch fanned %d extra writes", got-fanned)
	}
}

// newReplicatedPair builds a 2-node Replicas=2 cluster where the second
// node can be killed and revived, returning the cluster, the live inner
// nodes, and the kill switch.
func newReplicatedPair(t *testing.T, cfg ClusterConfig) (*Cluster, [2]*Node, *flakyBackend) {
	t.Helper()
	nodes := [2]*Node{}
	for i := range nodes {
		node, err := NewNode(NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%d", i)),
			Store:         hashdb.NewMemStore(),
			CacheSize:     256,
			BloomExpected: 100000,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = node
	}
	flaky := &flakyBackend{Backend: nodes[1]}
	cfg.Replicas = 2
	c, err := NewCluster(cfg, nodes[0], flaky)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, nodes, flaky
}

// TestWriteQuorumFailureDegradesToSafeNew: with the default majority
// quorum (2 of 2), an insert whose mirror is down cannot fail — the
// decider's copy is already durable, so an error would make a retry look
// like a stored duplicate and the client would skip the upload of a chunk
// no one stored. The insert must instead ack with the safe "new" answer
// (the client uploads), count a QuorumFailure, and converge the missing
// mirror once it is back.
func TestWriteQuorumFailureDegradesToSafeNew(t *testing.T) {
	c, _, flaky := newReplicatedPair(t, ClusterConfig{})
	ctx := context.Background()
	fp := fpOwnedBy(t, c, "node-0")

	flaky.kill()
	r, err := c.LookupOrInsert(ctx, fp, 1)
	if err != nil {
		t.Fatalf("insert with dead mirror errored after the durable decider insert: %v", err)
	}
	if r.Exists {
		t.Fatalf("degraded insert = %+v, want the safe 'new' answer", r)
	}
	if got := c.ReplicationStats().QuorumFailures; got == 0 {
		t.Fatal("quorum failure not counted")
	}
	// A retry is answered "duplicate" — safe, because the first call
	// already told the client to upload. This consistency (never an error
	// in between) is exactly why the degraded path must not fail.
	if r, err := c.LookupOrInsert(ctx, fp, 1); err != nil || !r.Exists || r.Value != 1 {
		t.Fatalf("retry of degraded insert = %+v, %v, want exists value 1", r, err)
	}

	// The batched path degrades the same way, pair by pair.
	fp2 := fpOwnedBy2(t, c, "node-0", fp)
	failures := c.ReplicationStats().QuorumFailures
	rs, err := c.BatchLookupOrInsert(ctx, []Pair{{FP: fp2, Val: 1}})
	if err != nil {
		t.Fatalf("batch insert with dead mirror errored: %v", err)
	}
	if len(rs) != 1 || rs[0].Exists {
		t.Fatalf("degraded batch insert = %+v, want the safe 'new' answer", rs)
	}
	if got := c.ReplicationStats().QuorumFailures; got <= failures {
		t.Fatal("batch quorum failure not counted")
	}

	// With the mirror back, anti-entropy converges the degraded inserts:
	// the repair queued while the mirror was dead may itself have failed
	// and been dropped — the sweep is the backstop.
	flaky.revive()
	if _, err := c.AntiEntropy(ctx); err != nil {
		t.Fatalf("AntiEntropy: %v", err)
	}
	if err := c.FlushRepairs(ctx); err != nil {
		t.Fatalf("FlushRepairs: %v", err)
	}
	for _, f := range []fingerprint.Fingerprint{fp, fp2} {
		replicas, err := c.routingFor(f)
		if err != nil {
			t.Fatalf("routingFor: %v", err)
		}
		for _, b := range replicas {
			if r, err := b.Lookup(ctx, f); err != nil || !r.Exists || r.Value != 1 {
				t.Fatalf("replica %s of %s after revive = %+v, %v, want exists value 1", b.ID(), f.Short(), r, err)
			}
		}
	}
}

// TestBatchQuorumFailoverWhenOwnerDown: a batch group whose OWNER is down
// must not fail the batch — its pairs fail over to the single-key path,
// where the surviving replica decides and the insert degrades to the safe
// "new" answer. Erroring instead would strand the batch's other groups:
// their entries are already durable, so a retried plan would report them
// as duplicates for chunks the client never uploaded.
func TestBatchQuorumFailoverWhenOwnerDown(t *testing.T) {
	c, nodes, flaky := newReplicatedPair(t, ClusterConfig{})
	ctx := context.Background()
	deadOwned := fpOwnedBy(t, c, "node-1") // group decided by the dead node
	liveOwned := fpOwnedBy(t, c, "node-0") // group that decides fine
	pairs := []Pair{{FP: deadOwned, Val: 7}, {FP: liveOwned, Val: 8}}

	flaky.kill()
	rs, err := c.BatchLookupOrInsert(ctx, pairs)
	if err != nil {
		t.Fatalf("batch with dead owner errored instead of failing over: %v", err)
	}
	for i, r := range rs {
		if r.Exists {
			t.Fatalf("degraded batch pair %d = %+v, want the safe 'new' answer", i, r)
		}
	}
	if got := c.ReplicationStats().QuorumFailures; got == 0 {
		t.Fatal("failed-over inserts did not count their quorum failures")
	}
	// Both entries are durable on the survivor, so a retried batch answers
	// "duplicate" — safe, the first batch already told the client to upload.
	rs, err = c.BatchLookupOrInsert(ctx, pairs)
	if err != nil {
		t.Fatalf("retry batch: %v", err)
	}
	for i, r := range rs {
		if !r.Exists || r.Value != pairs[i].Val {
			t.Fatalf("retry pair %d = %+v, want exists value %d", i, r, pairs[i].Val)
		}
	}

	// Once the owner is back, the sweep restores full replication.
	flaky.revive()
	if _, err := c.AntiEntropy(ctx); err != nil {
		t.Fatalf("AntiEntropy: %v", err)
	}
	if err := c.FlushRepairs(ctx); err != nil {
		t.Fatalf("FlushRepairs: %v", err)
	}
	for i, p := range pairs {
		for _, n := range nodes {
			if r, err := n.Lookup(ctx, p.FP); err != nil || !r.Exists || r.Value != p.Val {
				t.Fatalf("node %s pair %d after revive = %+v, %v, want exists value %d", n.ID(), i, r, err, p.Val)
			}
		}
	}
}

// countingBackend wraps a node, counts the calls the cluster makes of it and
// records which pairs it was asked to decide and to mirror; dead, it fails
// them all the same.
type countingBackend struct {
	*Node
	dead                      atomic.Bool
	batches, singles, repairs atomic.Int64
	mu                        sync.Mutex
	decided, mirror           map[fingerprint.Fingerprint]bool
}

func counting(n *Node) *countingBackend {
	return &countingBackend{Node: n, decided: make(map[fingerprint.Fingerprint]bool), mirror: make(map[fingerprint.Fingerprint]bool)}
}

func (b *countingBackend) note(set map[fingerprint.Fingerprint]bool, pairs []Pair) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range pairs {
		set[p.FP] = true
	}
	if b.dead.Load() {
		return errInjected
	}
	return nil
}

// sets copies decided and mirror under the lock: mirror waves a batch sent
// may still be landing after the batch returned.
func (b *countingBackend) sets() (decided, mirror map[fingerprint.Fingerprint]bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return maps.Clone(b.decided), maps.Clone(b.mirror)
}

func (b *countingBackend) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, v Value) (LookupResult, error) {
	b.singles.Add(1)
	return b.Node.LookupOrInsert(ctx, fp, v)
}

func (b *countingBackend) BatchLookupOrInsert(ctx context.Context, pairs []Pair) ([]LookupResult, error) {
	b.batches.Add(1)
	if err := b.note(b.decided, pairs); err != nil {
		return nil, err
	}
	return b.Node.BatchLookupOrInsert(ctx, pairs)
}

func (b *countingBackend) ApplyRepair(ctx context.Context, pairs []Pair) ([]LookupResult, error) {
	b.repairs.Add(1)
	if err := b.note(b.mirror, pairs); err != nil {
		return nil, err
	}
	return b.Node.ApplyRepair(ctx, pairs)
}

// TestDeadOwnerFailsOverInBatches: a 1 024-pair group whose owner is down is
// decided by its pairs' rank-1 successors in one sub-batch per node — at most
// Replicas batched backend calls for the group, the dead one included, and no
// single-key call — and each pair is mirrored to its rank 0 (the dead owner,
// whose wave fails) and rank 2, not back to the node that decided it. The
// answers degrade as TestBatchQuorumFailoverWhenOwnerDown says: all new,
// every pair a quorum failure (WriteQuorum 3 cannot be met), and a retry is
// answered duplicate.
func TestDeadOwnerFailsOverInBatches(t *testing.T) {
	const replicas, size = 3, 1024
	wrapped := make([]*countingBackend, replicas)
	backends := make([]Backend, replicas)
	for i := range wrapped {
		wrapped[i] = counting(newNamedNode(t, fmt.Sprintf("node-%d", i)))
		backends[i] = wrapped[i]
	}
	c, err := NewCluster(ClusterConfig{Replicas: replicas, WriteQuorum: replicas}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()
	var pairs []Pair
	for i := uint64(0); len(pairs) < size; i++ {
		if owner, _ := c.Owner(fp(i)); owner == "node-1" {
			pairs = append(pairs, Pair{FP: fp(i), Val: Value(i + 1)})
		}
	}

	wrapped[1].dead.Store(true)
	rs, err := c.BatchLookupOrInsert(ctx, pairs)
	if err != nil {
		t.Fatalf("batch with dead owner errored instead of failing over: %v", err)
	}
	var batches, singles int64
	for _, b := range wrapped {
		batches, singles = batches+b.batches.Load(), singles+b.singles.Load()
	}
	if batches > replicas || singles != 0 {
		t.Fatalf("the dead owner's group cost %d batched and %d single-key backend calls, want at most %d and 0", batches, singles, replicas)
	}
	if got := c.ReplicationStats().QuorumFailures; got != size {
		t.Fatalf("QuorumFailures = %d, want %d", got, size)
	}
	// The mirror waves are asynchronous: wait until each pair has reached
	// its rank 0 and rank 2, then judge the sets as they stand.
	decided := make(map[*countingBackend]map[fingerprint.Fingerprint]bool, replicas)
	mirror := make(map[*countingBackend]map[fingerprint.Fingerprint]bool, replicas)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		for _, b := range wrapped {
			decided[b], mirror[b] = b.sets()
		}
		settled := true
		for _, p := range pairs {
			succ, _ := c.routingFor(p.FP)
			settled = settled && mirror[wrapped[1]][p.FP] && mirror[succ[2].(*countingBackend)][p.FP]
		}
		if settled || time.Now().After(deadline) {
			break
		}
	}
	for i, p := range pairs {
		if rs[i].Exists {
			t.Fatalf("pair %d = %+v, want the safe 'new' answer", i, rs[i])
		}
		succ, _ := c.routingFor(p.FP)
		dead, decider, last := wrapped[1], succ[1].(*countingBackend), succ[2].(*countingBackend)
		if !decided[dead][p.FP] || !decided[decider][p.FP] || decided[last][p.FP] {
			t.Fatalf("pair %d was not decided by its rank-1 successor alone", i)
		}
		if !mirror[dead][p.FP] || mirror[decider][p.FP] || !mirror[last][p.FP] {
			t.Fatalf("pair %d mirrored to rank 0/1/2 = %v/%v/%v, want true/false/true", i, mirror[dead][p.FP], mirror[decider][p.FP], mirror[last][p.FP])
		}
	}
	rs, err = c.BatchLookupOrInsert(ctx, pairs)
	for i := range pairs {
		if err != nil || !rs[i].Exists || rs[i].Value != pairs[i].Val {
			t.Fatalf("retry pair %d = %+v, %v, want exists value %d", i, rs[i], err, pairs[i].Val)
		}
	}
}

// TestWriteQuorumOneTradesDurabilityForAvailability: WriteQuorum=1 keeps
// accepting inserts with the mirror down, queues the missed replica
// writes, and anti-entropy restores full replication once the mirror is
// back.
func TestWriteQuorumOneTradesDurabilityForAvailability(t *testing.T) {
	c, nodes, flaky := newReplicatedPair(t, ClusterConfig{WriteQuorum: 1})
	ctx := context.Background()

	flaky.kill()
	var fps []fingerprint.Fingerprint
	for i := uint64(0); len(fps) < 50; i++ {
		fp := fingerprint.FromUint64(i)
		if owner, _ := c.Owner(fp); owner != "node-0" {
			continue
		}
		if _, err := c.LookupOrInsert(ctx, fp, Value(i+1)); err != nil {
			t.Fatalf("quorum-1 insert with dead mirror: %v", err)
		}
		fps = append(fps, fp)
	}
	// Quorum 1 means the insert acks before the mirror write resolves;
	// the failed fan-out enqueues its repair asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for c.ReplicationStats().RepairsQueued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no repairs queued for the unreachable mirror")
		}
		time.Sleep(time.Millisecond)
	}

	flaky.revive()
	if _, err := c.AntiEntropy(ctx); err != nil {
		t.Fatalf("AntiEntropy: %v", err)
	}
	if err := c.FlushRepairs(ctx); err != nil {
		t.Fatalf("FlushRepairs: %v", err)
	}
	for _, fp := range fps {
		if r, err := nodes[1].Lookup(ctx, fp); err != nil || !r.Exists {
			t.Fatalf("mirror missing %s after anti-entropy: %+v, %v", fp.Short(), r, err)
		}
	}
}

// TestDuplicateInsertDoesNotRefan: a duplicate was already replicated
// when it was first acked; answering it again must not generate mirror
// traffic.
func TestDuplicateInsertDoesNotRefan(t *testing.T) {
	c := newTestCluster(t, 2, ClusterConfig{Replicas: 2})
	ctx := context.Background()
	fp := fingerprint.FromUint64(42)

	if _, err := c.LookupOrInsert(ctx, fp, 1); err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	fanned := c.ReplicationStats().FannedWrites
	for i := 0; i < 5; i++ {
		r, err := c.LookupOrInsert(ctx, fp, Value(100+i))
		if err != nil {
			t.Fatalf("duplicate insert: %v", err)
		}
		if !r.Exists || r.Value != 1 {
			t.Fatalf("duplicate = %+v, want exists value 1", r)
		}
	}
	if got := c.ReplicationStats().FannedWrites; got != fanned {
		t.Fatalf("duplicates fanned %d extra writes", got-fanned)
	}
}

// ApplyRepair is durable on return on a write-back node whose destager is
// held back: the pair it creates and the pair it finds only dirty in RAM
// are both in the store when the call returns.
func TestApplyRepairDurableOnWriteBack(t *testing.T) {
	ctx := context.Background()
	store := hashdb.NewMemStore()
	n, err := NewNode(heldBack("wb", store, ""))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	if _, err := n.LookupOrInsert(ctx, fp(1), 1); err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	rs, err := n.ApplyRepair(ctx, []Pair{{FP: fp(1), Val: 9}, {FP: fp(2), Val: 2}})
	if err != nil {
		t.Fatalf("ApplyRepair: %v", err)
	}
	if !rs[0].Exists || rs[0].Value != 1 || rs[1].Exists {
		t.Fatalf("ApplyRepair = %+v, want the held 1 found and 2 created", rs)
	}
	for i, want := range []Value{1, 2} {
		if v, ok, err := store.Get(fp(uint64(i + 1))); err != nil || !ok || v != want {
			t.Fatalf("store holds fingerprint %d = (%d, %v, %v) on return, want %d", i+1, v, ok, err, want)
		}
	}
}

// A replica's ack is a durable ack: on a Replicas 2, WriteQuorum 2 cluster
// of journaled write-back nodes held back from destaging, the mirror is
// killed right after the inserts are acked and reborn from its store and
// journal, and keeps every pair it repair-created.
func TestReplicatedMirrorKeepsRepairCreatedPairs(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	mustNode := func(cfg NodeConfig) *Node {
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatalf("NewNode(%s): %v", cfg.ID, err)
		}
		return n
	}
	medium := durableStore{hashdb.NewMemStore()}
	store := hashdb.NewFailpoint(medium, math.MaxInt64, nil)
	mirror := mustNode(heldBack("node-1", store, filepath.Join(dir, "node-1.wal")))
	c, err := NewCluster(ClusterConfig{Replicas: 2, WriteQuorum: 2},
		mustNode(heldBack("node-0", hashdb.NewMemStore(), filepath.Join(dir, "node-0.wal"))), mirror)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	pairs := make([]Pair, 1000)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i + 1)}
	}
	rs, err := c.BatchLookupOrInsert(ctx, pairs)
	if err != nil {
		t.Fatalf("BatchLookupOrInsert: %v", err)
	}
	for i, r := range rs {
		if r.Exists {
			t.Fatalf("fresh pair %d answered duplicate", i)
		}
	}
	st, _ := mirror.Stats(ctx)
	created := int(st.Replica.RepairCreated)
	if created == 0 {
		t.Fatal("the mirror created nothing; test is vacuous")
	}

	store.Kill()
	snap, err := os.ReadFile(filepath.Join(dir, "node-1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	mirror.Close() // error expected: the store is dead
	reborn := mustNode(heldBack("node-1", medium, crashWAL(t, dir, snap)))
	defer reborn.Close()
	kept := 0
	for _, p := range pairs {
		if owner, _ := c.Owner(p.FP); owner != "node-0" {
			continue // decided on the mirror: a client ack from RAM, not a repair
		}
		if r, err := reborn.Lookup(ctx, p.FP); err == nil && r.Exists && r.Value == p.Val {
			kept++
		}
	}
	if kept != created {
		t.Fatalf("the killed mirror kept %d of the %d pairs it repair-created", kept, created)
	}
}

// FlushRepairs blocks until the repair queue is empty and the worker is
// idle (or ctx is done), which makes async read-repair deterministic.
func (c *Cluster) FlushRepairs(ctx context.Context) error {
	if c.repairWake == nil {
		return nil
	}
	for {
		c.repairMu.Lock()
		idle := len(c.repairOrder) == 0 && !c.repairBusy
		c.repairMu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}
