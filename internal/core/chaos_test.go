package core

// The chaos rows are the one driver for membership churn: each is a
// topology, a worker mix and a fault script, seeded and run while the
// workers hammer the cluster. Faults fire at worker op counts. Every answer
// is held to the contract model (internal/simtest, ARCHITECTURE "Safety
// contract"): no acked key answered "new" (R5), no fresh key answered
// "duplicate" (R4), no value nobody wrote (R1). A failure names the row's
// seed.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/device"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
	"shhc/internal/simtest"
)

// chaosWorker is one kind of client traffic.
type chaosWorker uint8

const (
	dupes        chaosWorker = iota // LookupOrInsert of seeded keys
	dupeBatches                     // 256-pair batches of seeded keys
	reads                           // Lookup of seeded keys
	fresh                           // LookupOrInsert of keys never seen before
	freshBatches                    // 128-pair batches of fresh keys
	freshTwice                      // 32-pair batches of fresh keys, each asked again at once
)

type chaosRow struct {
	name    string
	nodes   int
	fronts  int // Clusters over the same members; 0: one. Membership changes go through the first.
	cfg     ClusterConfig
	member  func(e *chaosEnv, id string) *Node // nil: an in-memory node
	scratch func(e *chaosEnv, id string) *Node // churn's joiners; nil: an in-memory node
	seeded  int
	hot     int // the seeded prefix workers ask for; 0: all of it
	// reupload proposes a seeded key's own value, as a client re-uploading a
	// chunk would; otherwise another one, so a migrated duplicate can be
	// told from the call's own insert by value.
	reupload bool
	workers  []chaosWorker
	fault    func(t *testing.T, e *chaosEnv)
	// tolerate lets calls fail: a member is dead for part of the script.
	tolerate bool
	after    func(t *testing.T, e *chaosEnv)
}

type chaosEnv struct {
	row    chaosRow
	seed   int64
	dir    string
	c      *Cluster
	fronts []*Cluster // c first; worker w sends through fronts[w % len]
	m      *simtest.Model
	nodes  []*Node
	ops    atomic.Int64  // worker calls made
	next   atomic.Uint64 // the last fresh key handed out
	// gate is read-held by every call and churn round, so a script can swap
	// a dead member out with nothing in flight.
	gate    sync.RWMutex
	retired []*Node // nodes that left the ring, closed when the row ends

	victim       *hashdb.Failpoint // kill-and-rebirth: the victim's store
	victimMedium hashdb.Store      // and what survives it
}

func seedVal(i uint64) uint64 { return simtest.Val(i, 1) }

func memNode(cache int) func(*chaosEnv, string) *Node {
	return func(e *chaosEnv, id string) *Node {
		return e.mustNode(NodeConfig{ID: ring.NodeID(id), Store: hashdb.NewMemStore(), CacheSize: cache, BloomExpected: 1 << 16})
	}
}

func (e *chaosEnv) mustNode(cfg NodeConfig) *Node {
	n, err := NewNode(cfg)
	if err != nil {
		panic(fmt.Sprintf("NewNode(%s): %v", cfg.ID, err))
	}
	return n
}

// waitOps blocks until the workers have made n calls.
func (e *chaosEnv) waitOps(t *testing.T, n int64) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); e.ops.Load() < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) || t.Failed() {
			t.Fatalf("seed %d: workers stopped at %d of %d calls", e.seed, e.ops.Load(), n)
		}
	}
}

// joinDrain joins a scratch node and drains it again until done. Drained
// nodes stay open until the row ends: a call that routed just before the
// drain may still ask one, which must answer.
func (e *chaosEnv) joinDrain(done func() bool) error {
	for round := 0; !done(); round++ {
		e.gate.RLock()
		scratch := e.row.scratch(e, fmt.Sprintf("churn-%d", round))
		for _, f := range e.fronts[1:] {
			f.attach(scratch)
		}
		_, err := e.c.JoinNode(context.Background(), scratch)
		if err == nil {
			_, err = e.c.DrainNode(context.Background(), scratch.ID())
		}
		e.retired = append(e.retired, scratch)
		e.gate.RUnlock()
		if err != nil {
			return fmt.Errorf("churn round %d: %w", round, err)
		}
	}
	return nil
}

// joinDrainUntil churns until the workers have made calls calls, or one of
// them failed.
func joinDrainUntil(calls int64) func(*testing.T, *chaosEnv) {
	return func(t *testing.T, e *chaosEnv) {
		if err := e.joinDrain(func() bool { return e.ops.Load() >= calls || t.Failed() }); err != nil {
			t.Fatalf("seed %d: %v", e.seed, err)
		}
	}
}

// attach makes b known to c without naming it in c's record: what a
// deployment's front would dial once a refusal taught it a record naming b.
func (c *Cluster) attach(b Backend) {
	c.mu.Lock()
	c.backends[b.ID()] = b
	c.mu.Unlock()
}

// call makes one worker call through c and holds its answers to the model.
func (e *chaosEnv) call(c *Cluster, rng *rand.Rand, kind chaosWorker) error {
	ctx := context.Background()
	hot := e.row.hot
	if hot == 0 {
		hot = e.row.seeded
	}
	var (
		calls []simtest.Call
		pairs []Pair
	)
	propose := func(k uint64, v uint64) {
		f := fingerprint.FromUint64(k)
		calls = append(calls, e.m.Propose(f, v))
		pairs = append(pairs, Pair{FP: f, Val: Value(v)})
	}
	dupe := func(k uint64) {
		if e.row.reupload {
			propose(k, seedVal(k))
		} else {
			propose(k, simtest.Val(k, 2))
		}
	}
	switch kind {
	case dupes:
		dupe(uint64(rng.Intn(hot)))
	case dupeBatches:
		for at, j := rng.Intn(hot), 0; j < 256; j++ {
			dupe(uint64((at + j) % hot))
		}
	case reads:
		f := fingerprint.FromUint64(uint64(rng.Intn(hot)))
		call := e.m.Read(f)
		r, err := c.Lookup(ctx, f)
		if err != nil {
			return e.soft(err)
		}
		return e.m.Answer(call, r.Exists, uint64(r.Value), simtest.Excuse{})
	case fresh:
		k := e.next.Add(1)
		propose(k, seedVal(k))
	case freshBatches:
		base := e.next.Add(128) - 127
		for j := uint64(0); j < 128; j++ {
			propose(base+j, seedVal(base+j))
		}
	case freshTwice:
		base := e.next.Add(32) - 31
		for j := uint64(0); j < 32; j++ {
			propose(base+j, seedVal(base+j))
		}
		if err := e.ask(c, calls, pairs); err != nil {
			return err
		}
		calls, pairs = calls[:0], pairs[:0]
		for j := uint64(0); j < 32; j++ {
			propose(base+j, simtest.Val(base+j, 2))
		}
	}
	return e.ask(c, calls, pairs)
}

// ask sends pairs through c and holds the answers to the model's calls.
func (e *chaosEnv) ask(c *Cluster, calls []simtest.Call, pairs []Pair) error {
	var (
		rs  []LookupResult
		err error
	)
	if len(pairs) == 1 {
		var r LookupResult
		r, err = c.LookupOrInsert(context.Background(), pairs[0].FP, pairs[0].Val)
		rs = []LookupResult{r}
	} else {
		rs, err = c.BatchLookupOrInsert(context.Background(), pairs)
	}
	if err != nil {
		return e.soft(err)
	}
	for i, r := range rs {
		if err := e.m.Answer(calls[i], r.Exists, uint64(r.Value), simtest.Excuse{}); err != nil {
			return err
		}
	}
	return nil
}

func (e *chaosEnv) soft(err error) error {
	if e.row.tolerate {
		return nil
	}
	return err
}

// Each row runs as its own test, named after it, so one replays with -run.
func TestConcurrentLookupsDuringRebalance(t *testing.T)                  { chaos(t) }
func TestBatchesDuringJoinNode(t *testing.T)                             { chaos(t) }
func TestFreshInsertsNeverReportedDuplicateDuringMigration(t *testing.T) { chaos(t) }
func TestFreshBatchesNeverDuplicateDuringJoinDrain(t *testing.T)         { chaos(t) }
func TestAsyncLookupsDuringRebalanceChaos(t *testing.T)                  { chaos(t) }
func TestConcurrentMembershipAndTraffic(t *testing.T)                    { chaos(t) }
func TestChaosDestageKillAndReopenDuringChurn(t *testing.T)              { chaos(t) }
func TestChaosWipeDiskRejoinAndAntiEntropy(t *testing.T)                 { chaos(t) }
func TestWriteBackTargetKilledAfterDrain(t *testing.T)                   { chaos(t) }
func TestTwoFrontsBatchesDuringJoinDrain(t *testing.T)                   { chaos(t) }
func TestFreshReaskedAcrossJoinDrain(t *testing.T)                       { chaos(t) }

// chaos runs the row the calling test is named after; its seed is the
// row's place in chaosRows.
func chaos(t *testing.T) {
	for i, row := range chaosRows {
		if "Test"+row.name == t.Name() {
			runChaos(t, row, int64(i+1))
			return
		}
	}
	t.Fatalf("no chaos row for %s", t.Name())
}

func runChaos(t *testing.T, row chaosRow, seed int64) {
	if row.member == nil {
		row.member = memNode(256)
	}
	if row.scratch == nil {
		row.scratch = memNode(128)
	}
	e := &chaosEnv{row: row, seed: seed, dir: t.TempDir(), m: simtest.NewModel()}
	e.next.Store(1 << 30)
	backends := make([]Backend, row.nodes)
	for i := range backends {
		n := row.member(e, fmt.Sprintf("node-%d", i))
		e.nodes = append(e.nodes, n)
		backends[i] = n
	}
	for range max(row.fronts, 1) {
		c, err := NewCluster(row.cfg, backends...)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		e.fronts = append(e.fronts, c)
	}
	c := e.fronts[0]
	e.c = c
	defer func() {
		for _, f := range e.fronts {
			f.Close() // the fronts share their members: every Close after the first finds them closed
		}
		for _, n := range e.retired {
			n.Close()
		}
	}()
	// Seed through the model: every ack is a put the contract then holds.
	seeds := make([]simtest.Call, row.seeded)
	pairs := make([]Pair, row.seeded)
	for i := range pairs {
		f := fingerprint.FromUint64(uint64(i))
		seeds[i] = e.m.Propose(f, seedVal(uint64(i)))
		pairs[i] = Pair{FP: f, Val: Value(seedVal(uint64(i)))}
	}
	settle := func(when string) {
		rs, err := c.BatchLookupOrInsert(context.Background(), pairs)
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, when, err)
		}
		for i, r := range rs {
			if err := e.m.Answer(seeds[i], r.Exists, uint64(r.Value), simtest.Excuse{}); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, when, err)
			}
			seeds[i] = e.m.Propose(pairs[i].FP, seedVal(uint64(i)))
		}
	}
	settle("seeding")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w, kind := range row.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.gate.RLock()
				err := e.call(e.fronts[w%len(e.fronts)], rng, kind)
				e.gate.RUnlock()
				e.ops.Add(1)
				if err != nil {
					t.Errorf("seed %d, worker %d: %v", seed, w, err)
					return
				}
			}
		}()
	}
	func() {
		defer func() { close(stop); wg.Wait() }()
		row.fault(t, e)
	}()
	if t.Failed() {
		t.FailNow()
	}
	// The row's own check runs first: the sweep below read-repairs replicas,
	// which would cover for a heal the fault script was to do.
	if row.after != nil {
		row.after(t, e)
	}
	// The churn is over: every seeded key is a duplicate again.
	settle("final sweep")
}

var chaosRows = []chaosRow{
	// A two-phase JoinNode migrates entries under LookupOrInsert traffic:
	// pre-copy before the routing flip means no seeded key is ever "new".
	{
		name: "ConcurrentLookupsDuringRebalance", nodes: 3, seeded: 5000,
		workers: []chaosWorker{dupes, dupes, dupes, dupes, dupes, dupes, dupes, dupes},
		fault: func(t *testing.T, e *chaosEnv) {
			e.waitOps(t, 100)
			if _, err := e.c.JoinNode(context.Background(), memNode(256)(e, "node-new")); err != nil {
				t.Fatalf("JoinNode under load: %v", err)
			}
		},
	},
	// Batches that routed on the old table ask an owner that may already
	// have handed their entries over; the owner refuses them, and they are
	// routed again on the table it holds.
	{
		name: "BatchesDuringJoinNode", nodes: 3, seeded: 4096,
		workers: []chaosWorker{dupeBatches, dupeBatches, dupeBatches, dupeBatches},
		fault: func(t *testing.T, e *chaosEnv) {
			// Back to back: a batch descheduled across two joins is the case.
			e.waitOps(t, 4)
			for round := 0; round < 3; round++ {
				if _, err := e.c.JoinNode(context.Background(), memNode(128)(e, fmt.Sprintf("joiner-%d", round))); err != nil {
					t.Fatalf("JoinNode under batches: %v", err)
				}
			}
		},
	},
	// The other direction: while JoinNode/DrainNode swap the table, a key
	// seen for the first time is always "new" — a retry that read back the
	// call's own insert as a duplicate would lose the chunk.
	{
		name: "FreshInsertsNeverReportedDuplicateDuringMigration", nodes: 3, seeded: 2000,
		workers: []chaosWorker{fresh, fresh, fresh, fresh},
		fault:   joinDrainUntil(8000),
	},
	{
		name: "FreshBatchesNeverDuplicateDuringJoinDrain", nodes: 3,
		workers: []chaosWorker{freshBatches, freshBatches, freshBatches, freshBatches},
		fault:   joinDrainUntil(96),
	},
	// Join/drain churn while lookups dwell mid-SSD-probe outside the stripe
	// locks (a Sleep-mode device): the async pipeline keeps the guarantee.
	{
		name: "AsyncLookupsDuringRebalanceChaos", nodes: 3, seeded: 1200,
		member: sleepNode, scratch: sleepNode,
		workers: []chaosWorker{dupes, dupes, dupes, dupes},
		fault:   joinDrainUntil(1000),
		after: func(t *testing.T, e *chaosEnv) {
			for _, n := range e.nodes {
				assertStatsInvariant(t, n)
			}
		},
	},
	// Join/drain rounds of a tiny scratch node under batch traffic: its
	// range is handed to it before routing flips to it and handed back
	// before routing leaves it, so no seed is ever answered "new", and with
	// the ring restored every seed is found.
	{
		name: "ConcurrentMembershipAndTraffic", nodes: 3, seeded: 1000,
		scratch: memNode(16),
		workers: []chaosWorker{dupeBatches, dupeBatches, dupeBatches, dupeBatches},
		fault: func(t *testing.T, e *chaosEnv) {
			round := 0
			err := e.joinDrain(func() bool {
				e.waitOps(t, int64(2*round))
				round++
				return round > 20
			})
			if err != nil {
				t.Fatalf("seed %d: %v", e.seed, err)
			}
		},
	},
	// Two fronts route over the same members while the first joins and
	// drains a scratch node: the second learns each change only from the
	// nodes, which refuse what it routed on a replaced table, so no seed is
	// ever answered "new" through either.
	{
		name: "TwoFrontsBatchesDuringJoinDrain", nodes: 3, seeded: 1000, fronts: 2,
		scratch: memNode(16),
		workers: []chaosWorker{dupeBatches, dupeBatches, dupeBatches, dupeBatches},
		fault:   joinDrainUntil(400),
		after: func(t *testing.T, e *chaosEnv) {
			if gen := e.fronts[1].route.Load().rec.Gen; gen == 1 {
				t.Fatal("the second front never learned a record from a refusal; the row is vacuous")
			}
		},
	},
	// A fresh key asked again right after its insert is a duplicate, also
	// when a flip lands between the two calls: a node answers for an arc
	// only once what was inserted on its old node during the copy arrived.
	{
		name: "FreshReaskedAcrossJoinDrain", nodes: 3,
		workers: []chaosWorker{freshTwice, freshTwice, freshTwice, freshTwice},
		fault:   joinDrainUntil(600),
	},
	// Destage waves run on journaled write-back nodes while join/drain churn
	// the ring; one member's store is killed mid-wave, the node is reborn
	// from its durable state (store + journal at the kill) and swapped back
	// in. Calls fail while it is dead; answers are never wrong.
	{
		name: "ChaosDestageKillAndReopenDuringChurn", nodes: 3, seeded: 2000,
		member:   wbNode,
		workers:  []chaosWorker{dupes, dupes, dupes, dupes, fresh},
		tolerate: true,
		fault:    killAndRebirth,
	},
	// Replicas=2 over file-backed journaled nodes: one is killed, its disk
	// wiped, and an empty node with its identity rejoins while readers and
	// re-uploaders hammer the hot set. A wiped replica's miss is a
	// divergence to repair, never an answer; one anti-entropy sweep then
	// restores every seed on its full replica set.
	{
		name: "ChaosWipeDiskRejoinAndAntiEntropy", nodes: 3, seeded: 1500, hot: 300,
		cfg: ClusterConfig{Replicas: 2}, member: fileNode, reupload: true,
		workers:  []chaosWorker{reads, dupes, reads, dupes},
		tolerate: true,
		fault:    wipeAndRejoin,
		after:    replicasHealed,
	},
	// A drain hands its entries to journaled write-back nodes whose
	// destager is held back, so what they acked from RAM stays there; one
	// target's store is killed before its next wave and the node is reborn
	// from store and journal. The hand-off is durable on return, so no seed
	// the drained node held is lost with the target's RAM.
	{
		name: "WriteBackTargetKilledAfterDrain", nodes: 3, seeded: 1500,
		member:  heldBackNode,
		workers: []chaosWorker{dupes, dupes, reads},
		fault:   killTargetAfterDrain,
	},
}

// ssd is a SATA II flash drive: ~60 µs a random 4 KiB read, writes about 3x
// slower, ~250 MB/s transfer.
var ssd = device.Model{Name: "ssd", ReadBase: 60 * time.Microsecond, WriteBase: 180 * time.Microsecond, PerByte: 4 * time.Nanosecond}

func sleepNode(e *chaosEnv, id string) *Node {
	return e.mustNode(NodeConfig{
		ID:            ring.NodeID(id),
		Store:         device.Slow(hashdb.NewMemStore(), ssd),
		CacheSize:     64, // tiny: most lookups reach the SSD tier
		BloomExpected: 1 << 14,
		stripes:       4,
	})
}

// memberStore is a member's store: node-2's can be killed and outlives the
// kill.
func (e *chaosEnv) memberStore(id string) hashdb.Store {
	if id != "node-2" {
		return hashdb.NewMemStore()
	}
	e.victimMedium = durableStore{hashdb.NewMemStore()}
	e.victim = hashdb.NewFailpoint(e.victimMedium, math.MaxInt64, nil)
	return e.victim
}

// wbNode is a journaled write-back node with small fast waves.
func wbNode(e *chaosEnv, id string) *Node {
	return e.wbNodeOn(id, e.memberStore(id), filepath.Join(e.dir, id+".wal"))
}

func (e *chaosEnv) wbNodeOn(id string, store hashdb.Store, journal string) *Node {
	return e.mustNode(NodeConfig{
		ID: ring.NodeID(id), Store: store, CacheSize: 64, BloomExpected: 1 << 16,
		WriteBack: true, JournalPath: journal, destageBatch: 8, destageQueue: 32, destageInterval: 100 * time.Microsecond,
	})
}

// heldBack configures a journaled write-back node in the backlogged shape
// with a cache larger than any test's keys: nothing leaves its RAM unless
// it is written through or flushed.
func heldBack(id string, store hashdb.Store, journal string) NodeConfig {
	return backlogged(NodeConfig{
		ID: ring.NodeID(id), Store: store, CacheSize: 4096, BloomExpected: 1 << 16,
		WriteBack: true, JournalPath: journal,
	})
}

func heldBackNode(e *chaosEnv, id string) *Node {
	return e.mustNode(heldBack(id, e.memberStore(id), filepath.Join(e.dir, id+".wal")))
}

// flushMembers makes the seeds durable everywhere: after it a "new" can
// come only from lost state or routing, never from the write-back window.
func (e *chaosEnv) flushMembers(t *testing.T) {
	for _, n := range e.nodes {
		if err := n.Flush(); err != nil {
			t.Fatalf("seed Flush: %v", err)
		}
	}
}

// rebirth kills node-2's store and swaps in reborn(medium, journal): the
// node rebuilt from the store as the kill froze it and the journal as it
// stood at that instant. With the gate held no call or churn round spans
// the dead window.
func (e *chaosEnv) rebirth(t *testing.T, reborn func(store hashdb.Store, journal string) *Node) {
	e.gate.Lock()
	defer e.gate.Unlock()
	e.victim.Kill()
	snap, err := os.ReadFile(filepath.Join(e.dir, "node-2.wal"))
	if err != nil {
		t.Fatal(err)
	}
	victim := e.nodes[2]
	victim.Close() // error expected: the store is dead
	e.nodes[2] = reborn(e.victimMedium, crashWAL(t, e.dir, snap))
	if err := e.c.removeNode(victim.ID()); err != nil {
		t.Fatalf("removeNode: %v", err)
	}
	if err := e.c.addNode(e.nodes[2]); err != nil {
		t.Fatalf("addNode: %v", err)
	}
}

func killAndRebirth(t *testing.T, e *chaosEnv) {
	e.flushMembers(t)
	var over atomic.Bool
	churn := make(chan error, 1)
	go func() { churn <- e.joinDrain(over.Load) }()
	defer func() {
		over.Store(true)
		if err := <-churn; err != nil {
			t.Errorf("seed %d: %v", e.seed, err)
		}
	}()
	e.waitOps(t, 3000)
	// The destager keeps draining the dirty buffer the traffic left, so the
	// kill still lands against in-flight waves.
	e.rebirth(t, func(store hashdb.Store, journal string) *Node { return e.wbNodeOn("node-2", store, journal) })
	e.waitOps(t, e.ops.Load()+3000)
}

// killTargetAfterDrain drains node-0 into node-1 and node-2 under traffic,
// then kills node-2 before any wave ran and brings it back.
func killTargetAfterDrain(t *testing.T, e *chaosEnv) {
	e.flushMembers(t)
	e.waitOps(t, 200)
	drained := e.nodes[0]
	before, err := drained.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.c.DrainNode(context.Background(), drained.ID())
	e.retired = append(e.retired, drained)
	if err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if st.Moved < before.StoreEntries {
		t.Fatalf("drain moved %d of node-0's %d entries", st.Moved, before.StoreEntries)
	}
	e.rebirth(t, func(store hashdb.Store, journal string) *Node { return e.mustNode(heldBack("node-2", store, journal)) })
	e.waitOps(t, e.ops.Load()+500)
}

// fileNode is a journaled write-back node over a file-backed table in the
// row's directory.
func fileNode(e *chaosEnv, id string) *Node {
	db, err := hashdb.Create(filepath.Join(e.dir, id+".shdb"), hashdb.Options{})
	if err != nil {
		panic(fmt.Sprintf("hashdb.Create(%s): %v", id, err))
	}
	return e.mustNode(NodeConfig{
		ID: ring.NodeID(id), Store: db, CacheSize: 64, BloomExpected: 1 << 12,
		WriteBack: true, JournalPath: filepath.Join(e.dir, id+".wal"),
		destageBatch: 8, destageInterval: 200 * time.Microsecond, destageQueue: 32,
	})
}

func wipeAndRejoin(t *testing.T, e *chaosEnv) {
	ctx := context.Background()
	victim := e.nodes[1]
	// Kill: the victim stops answering while still a ring member, so calls
	// fail over and verify misses against a dead replica.
	e.waitOps(t, 200)
	victim.Close()
	e.waitOps(t, e.ops.Load()+200)
	// Wipe: the hash table and the journal are gone. Rejoin empty, under
	// the same identity.
	if err := e.c.removeNode(victim.ID()); err != nil {
		t.Fatalf("removeNode: %v", err)
	}
	for _, ext := range []string{".shdb", ".wal"} {
		if err := os.Remove(filepath.Join(e.dir, string(victim.ID())+ext)); err != nil {
			t.Fatalf("wipe: %v", err)
		}
	}
	e.nodes[1] = fileNode(e, string(victim.ID()))
	if err := e.c.addNode(e.nodes[1]); err != nil {
		t.Fatalf("addNode: %v", err)
	}
	e.waitOps(t, e.ops.Load()+400) // workers against the empty rejoined owner
	// Heal. The membership changes woke the background sweeper too, which
	// races this one: some sweep must repair, so poll the cumulative counter.
	if _, err := e.c.AntiEntropy(ctx); err != nil {
		t.Fatalf("AntiEntropy: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); e.c.ReplicationStats().AntiEntropyRepaired == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no sweep repaired anything after the wipe")
		}
	}
	if err := e.c.FlushRepairs(ctx); err != nil {
		t.Fatalf("FlushRepairs: %v", err)
	}
}

// replicasHealed: every seed is on its full replica set with its own value,
// and the counters webfront surfaces show the sweep.
func replicasHealed(t *testing.T, e *chaosEnv) {
	for i := uint64(0); i < uint64(e.row.seeded); i++ {
		f := fingerprint.FromUint64(i)
		replicas, err := e.c.routingFor(f)
		if err != nil || len(replicas) != 2 {
			t.Fatalf("fingerprint %d routes to %d replicas (%v), want 2", i, len(replicas), err)
		}
		for _, b := range replicas {
			r, err := b.Lookup(context.Background(), f)
			if err != nil || !r.Exists || uint64(r.Value) != seedVal(i) {
				t.Fatalf("replica %s of fingerprint %d = (%+v, %v), want value %d", b.ID(), i, r, err, seedVal(i))
			}
		}
	}
	if repl := e.c.ReplicationStats(); repl.AntiEntropyRuns == 0 || repl.AntiEntropyRepaired == 0 {
		t.Fatalf("replication counters missed the sweep: %+v", repl)
	}
}
