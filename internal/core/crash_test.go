package core

// The node-level kill-point sweeps. A write-back node with a journal runs a
// schedule over a table whose file dies at its Nth page write
// (simtest.FaultFile); the node is then rebuilt from exactly what a dead
// process leaves — the table as the kill froze it and the journal as it was
// at that instant — and
// what the reborn node serves is held to the contract model (internal/simtest,
// ARCHITECTURE "Safety contract"). The only excuse is the write-back window:
// the cache (one exact-LRU stripe of crashCache entries) acks inserts from
// RAM, and an eviction acks only once its journal record is fsynced, so only
// the crashCache keys acked last may be gone.

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
	"shhc/internal/simtest"
)

const (
	crashCache   = 8
	crashInserts = 48
)

// crashOps inserts crashInserts fresh keys one at a time and flushes.
var crashOps = simtest.Schedule{
	{Kind: simtest.Put, Keys: simtest.Span(0, crashInserts), Gen: 1},
	{Kind: simtest.Sync},
}

// crashNodeConfig builds the write-back node under test: small cache,
// small fast waves so destage I/O interleaves the schedule densely.
func crashNodeConfig(store hashdb.Store, journalPath string) NodeConfig {
	return NodeConfig{
		ID:              ring.NodeID("crash-node"),
		Store:           store,
		CacheSize:       crashCache,
		BloomExpected:   1 << 12,
		WriteBack:       true,
		JournalPath:     journalPath,
		destageBatch:    4,
		destageInterval: 200 * time.Microsecond,
		destageQueue:    16,
	}
}

// backlogged holds cfg's destager back until two caches' worth of entries
// are pending, so evictions pile up in the buffer and a kill strands acked
// entries only the journal holds. With a wave every few inserts,
// clean-ahead writes every entry before it is evicted, and a sweep would
// pass with the journal snapshot emptied.
func backlogged(cfg NodeConfig) NodeConfig {
	cfg.destageBatch, cfg.destageQueue, cfg.destageInterval = 2*cfg.CacheSize, 2*cfg.CacheSize, time.Hour
	return cfg
}

// destagers are the two shapes a node sweep runs in: dense, whose kills land
// inside small clean-ahead waves, and backlogged, whose kills test the
// journal.
var destagers = []struct {
	name  string
	shape func(NodeConfig) NodeConfig
}{
	{"dense", func(cfg NodeConfig) NodeConfig { return cfg }},
	{"backlogged", backlogged},
}

// sweepDestagers runs sw(shape) once per destager, each as a subtest.
func sweepDestagers(t *testing.T, sw func(shape func(NodeConfig) NodeConfig) simtest.Sweep) {
	for _, d := range destagers {
		t.Run(d.name, func(t *testing.T) { sw(d.shape).Run(t) })
	}
}

// nodeTarget runs a simtest schedule against a node: a put is the
// lookup-or-insert flow, so it settles on the value the node already held.
type nodeTarget struct{ n *Node }

func (nt nodeTarget) PutBatch(fps []fingerprint.Fingerprint, vals []uint64) ([]uint64, error) {
	pairs := make([]Pair, len(fps))
	for i := range fps {
		pairs[i] = Pair{FP: fps[i], Val: Value(vals[i])}
	}
	rs, err := nt.n.BatchLookupOrInsert(context.Background(), pairs)
	if err != nil {
		return nil, err
	}
	got := make([]uint64, len(rs))
	for i, r := range rs {
		got[i] = settled(r, vals[i])
	}
	return got, nil
}

func (nt nodeTarget) Put(f fingerprint.Fingerprint, v uint64) (uint64, error) {
	r, err := nt.n.LookupOrInsert(context.Background(), f, Value(v))
	return settled(r, v), err
}

func settled(r LookupResult, proposed uint64) uint64 {
	if r.Exists {
		return uint64(r.Value)
	}
	return proposed
}

func (nt nodeTarget) Delete(f fingerprint.Fingerprint) error {
	_, err := nt.n.Remove(f)
	return err
}

func (nt nodeTarget) Sync() error { return nt.n.Flush() }

func (nodeTarget) Compact() error { return nil }

// lookupVia reads one key the way a model check wants it.
func lookupVia(b Backend) func(fingerprint.Fingerprint) (uint64, bool, error) {
	return func(f fingerprint.Fingerprint) (uint64, bool, error) {
		r, err := b.Lookup(context.Background(), f)
		return uint64(r.Value), r.Exists, err
	}
}

// crashWAL writes snap, a journal's bytes at the instant of a kill, to
// crash.wal in dir and returns its path: the node reborn on it replays what
// the dead one had made durable, whatever the dead one did to its own file
// on the way down.
func crashWAL(t *testing.T, dir string, snap []byte) string {
	t.Helper()
	path := filepath.Join(dir, "crash.wal")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// crashBuckets and ballast shape a crash node's table: it starts with the
// ballast in crashBuckets buckets, crashInserts/2 entries short of the one
// that starts its first split, so the schedule's inserts split it and a
// wave lands about one page a key.
const crashBuckets = 8

// ballast is the pairs a crash node's table starts with, keys from 1<<20
// that no schedule touches: those a table of crashBuckets takes, one Put at
// a time, before it splits, less crashInserts/2.
var ballast = func() []hashdb.Pair {
	db := hashdb.CreateMem(nil, hashdb.Options{Buckets: crashBuckets})
	defer db.Close()
	var pairs []hashdb.Pair
	for k := uint64(1 << 20); db.Stats().Splits == 0; k++ {
		p := hashdb.Pair{FP: fingerprint.FromUint64(k), Val: hashdb.Value(simtest.Val(k, 1))}
		if _, err := db.Put(p.FP, p.Val); err != nil {
			panic(err)
		}
		pairs = append(pairs, p)
	}
	return pairs[:len(pairs)-crashInserts/2]
}()

// crashTable is a crash node's table as it starts, ballast stored, on a
// new MemFile.
func crashTable() *hashdb.MemFile {
	f := &hashdb.MemFile{}
	db := hashdb.CreateMem(f, hashdb.Options{Buckets: crashBuckets})
	if _, _, err := db.PutBatch(context.Background(), ballast); err != nil {
		panic(err)
	}
	db.Close()
	return f
}

// checkBallast holds a reborn crash node's table to its ballast, which no
// schedule touches: every pair is there with its value, unless a page tore.
func checkBallast(t *testing.T, db *hashdb.DB, torn bool) {
	t.Helper()
	fps := make([]fingerprint.Fingerprint, len(ballast))
	for i, p := range ballast {
		fps[i] = p.FP
	}
	vals, found, err := db.GetBatch(context.Background(), fps)
	if err != nil {
		t.Fatalf("reading the ballast back: %v", err)
	}
	for i, p := range ballast {
		if found[i] && vals[i] != p.Val || !found[i] && !torn {
			t.Fatalf("ballast %s = (%d, %v) after recovery, want %d (recovery %+v)", p.FP.Short(), vals[i], found[i], p.Val, db.Recovery())
		}
	}
}

// reopen opens the table a node left on f, as its process restarting would:
// recovered, if the node died.
func reopen(t *testing.T, f *hashdb.MemFile) *hashdb.DB {
	t.Helper()
	db, err := hashdb.OpenFile(f, "")
	if err != nil {
		t.Fatalf("reopening the table: %v", err)
	}
	return db
}

// faultTable opens the table on f over a file that dies at its kill-th page
// write, tear bytes of that page landing; math.MaxInt64 dies only at Kill.
// What f holds outlives the death.
func faultTable(t *testing.T, f *hashdb.MemFile, kill int64, tear int) (*hashdb.DB, *simtest.FaultFile) {
	t.Helper()
	ff := simtest.NewFaultFile(f, hashdb.PageSize, kill, tear)
	db, err := hashdb.OpenFile(ff, "")
	if err != nil {
		t.Fatal(err)
	}
	return db, ff
}

// nodeSweep sweeps sched over a crash node shaped by shape, whose table dies
// at a page write with tear bytes of that page landing; the probe, a run no
// kill reaches, checks that the schedule splits the table.
func nodeSweep(sched simtest.Schedule, shape func(NodeConfig) NodeConfig) simtest.Sweep {
	return simtest.Sweep{
		Probe: func(t *testing.T) int64 {
			writes, splits := nodeKill(t, sched, shape, math.MaxInt64, 0)
			if splits == 0 {
				t.Fatal("the schedule never split the table")
			}
			return writes
		},
		Kill: func(t *testing.T, kill int64, tear int) { nodeKill(t, sched, shape, kill, tear) },
	}
}

// nodeKill runs sched on a crash node whose table dies at its kill-th page
// write, then rebuilds the node from exactly what a dead process leaves: the
// table as the kill froze it and the journal as it was at that instant. It
// returns the pages the run wrote and the splits its table made.
func nodeKill(t *testing.T, sched simtest.Schedule, shape func(NodeConfig) NodeConfig, kill int64, tear int) (writes int64, splits uint64) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	m, f := simtest.NewModel(), crashTable()
	db, ff := faultTable(t, f, kill, tear)
	var snap []byte
	ff.OnKill = func() {
		m.Crash()
		snap, _ = os.ReadFile(jpath)
	}
	n, err := NewNode(shape(crashNodeConfig(db, jpath)))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if err := sched.Run(nodeTarget{n}, m); err != nil && !errors.Is(err, simtest.ErrKilled) {
		t.Fatalf("schedule failed with a non-kill error: %v", err)
	}
	if err := n.Close(); err != nil && !ff.Killed() {
		t.Fatalf("Close: %v", err)
	}

	var ex simtest.Excuse
	if ff.Killed() {
		if snap == nil {
			t.Fatal("no journal snapshot captured at the kill")
		}
		jpath, ex.Window = crashWAL(t, dir, snap), crashCache
	}
	reborn := reopen(t, f)
	ex.Torn = reborn.Recovery().TornPages > 0
	n2, err := NewNode(crashNodeConfig(reborn, jpath))
	if err != nil {
		t.Fatalf("NewNode after the crash: %v", err)
	}
	defer n2.Close()
	if err := m.Check(lookupVia(n2), ex); err != nil {
		t.Fatalf("%v (recovery %+v)", err, reborn.Recovery())
	}
	checkBallast(t, reborn, ex.Torn)
	return ff.Writes(), db.Stats().Splits
}

func TestCrashEveryKillPointRecoversAckedEvictions(t *testing.T) {
	sweepDestagers(t, func(shape func(NodeConfig) NodeConfig) simtest.Sweep {
		sw := nodeSweep(crashOps, shape)
		sw.Floor, sw.Through = crashInserts/2, crashInserts
		return sw
	})
}

// TestCrashKillPointsOnDiskStore tears the killing page, at every third
// point: the reopen is hashdb recovery quarantining a torn page, then journal
// replay over what is left, and a lost acked key is excused only by the torn
// page. How many pages a run writes depends on how the destager's waves
// interleave the inserts, so both sweeps reach a fixed point whatever one
// probe counted; a point the run never reaches is a clean close and reopen.
func TestCrashKillPointsOnDiskStore(t *testing.T) {
	sweepDestagers(t, func(shape func(NodeConfig) NodeConfig) simtest.Sweep {
		sw := nodeSweep(crashOps, shape)
		sw.Step, sw.Through, sw.Tears = 3, crashInserts+crashCache, []int{0, hashdb.PageSize / 2}
		return sw
	})
}

// FuzzNodeCrashSchedule composes crash × destage wave × split × hashdb
// recovery × journal replay: a schedule generated from seed runs on a crash
// node whose table dies at its kill-th page write. The seed corpus runs with
// the tests.
func FuzzNodeCrashSchedule(f *testing.F) {
	f.Add(int64(1), uint16(5))
	f.Add(int64(2), uint16(40))
	f.Add(int64(3), uint16(90))
	f.Add(int64(4), uint16(150))
	f.Add(int64(5), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, kill uint16) {
		nodeKill(t, insertsOnly(simtest.Generate(seed, 200, 25)), backlogged, int64(kill)+1, 0)
	})
}

// insertsOnly drops the puts of keys the schedule holds at that point. A
// node never overwrites, and a duplicate answered from its cache only sets
// the entry's clock bit, which extends its residency at eviction time: the
// write-back window, counted in acked keys, cannot bound that.
func insertsOnly(s simtest.Schedule) simtest.Schedule {
	live := make(map[uint64]bool)
	var out simtest.Schedule
	for _, op := range s {
		switch op.Kind {
		case simtest.Put, simtest.PutBatch:
			var keys []uint64
			for _, k := range op.Keys {
				if !live[k] {
					live[k] = true
					keys = append(keys, k)
				}
			}
			if len(keys) == 0 {
				continue
			}
			op.Keys = keys
		case simtest.Delete:
			for _, k := range op.Keys {
				delete(live, k)
			}
		}
		out = append(out, op)
	}
	return out
}

// TestReplicatedCrashKillOwnerAtEveryWrite kills the owner's store at every
// write while a 2-node, Replicas=2, 2-of-2-quorum cluster inserts keys node-0
// owns. An ack either met the quorum (node-1 durably took the mirror write)
// or degraded below it, which here happens only when node-1 decided the
// insert after failover. Either way the survivor must serve every acked key
// at its value, before any repair runs. The owner's destager issues 48–50
// writes a run, how many depending on how its waves interleave the inserts,
// so the sweep reaches past crashInserts whatever one probe counted; a point
// the run never reaches is a clean run, held to the same check.
func TestReplicatedCrashKillOwnerAtEveryWrite(t *testing.T) {
	fps := replCrashFPs(t)
	// run inserts every key, acking those whose insert returned: after the
	// kill a failed insert is simply not acked.
	run := func(t *testing.T, store *hashdb.DB) (*Cluster, *Node, *simtest.Model) {
		c, b := buildReplicatedPair(t, store, filepath.Join(t.TempDir(), "node.wal"))
		m := simtest.NewModel()
		for i, f := range fps {
			v := simtest.Val(uint64(i), 1)
			m.Put(f, v)
			if _, err := c.LookupOrInsert(context.Background(), f, Value(v)); err == nil {
				m.AckPut(f, v)
			}
		}
		return c, b, m
	}
	simtest.Sweep{
		Floor:   crashInserts / 2,
		Through: crashInserts + crashCache/2,
		Probe: func(t *testing.T) int64 {
			db, probe := faultTable(t, crashTable(), math.MaxInt64, 0)
			c, _, _ := run(t, db)
			c.Close() // flushes the owner's destage tail through the probe file
			if db.Stats().Splits == 0 {
				t.Fatal("the inserts never split the owner's table")
			}
			return probe.Writes()
		},
		Kill: func(t *testing.T, kill int64, _ int) {
			db, _ := faultTable(t, crashTable(), kill, 0)
			c, b, m := run(t, db)
			defer c.Close() // errors expected after a kill
			if err := m.Check(lookupVia(b), simtest.Excuse{}); err != nil {
				t.Fatalf("survivor: %v", err)
			}
		},
	}.Run(t)
}

// replCrashFPs returns crashInserts fingerprints all owned by node-0 in a
// 2-node ring — the ring layout depends only on the IDs, so a throwaway
// cluster computes the same ownership the real runs will see.
func replCrashFPs(t *testing.T) []fingerprint.Fingerprint {
	t.Helper()
	probe := newTestCluster(t, 2, ClusterConfig{Replicas: 2})
	fps := make([]fingerprint.Fingerprint, 0, crashInserts)
	for i := uint64(0); len(fps) < crashInserts; i++ {
		if i > 100_000 {
			t.Fatal("could not collect node-0-owned fingerprints")
		}
		f := fingerprint.FromUint64(i)
		if owner, err := probe.Owner(f); err == nil && owner == "node-0" {
			fps = append(fps, f)
		}
	}
	return fps
}

// buildReplicatedPair assembles owner A (write-back, journaled, over the
// given store) and survivor B (plain write-through), replicated 2×2.
func buildReplicatedPair(t *testing.T, storeA hashdb.Store, journalA string) (*Cluster, *Node) {
	t.Helper()
	cfgA := crashNodeConfig(storeA, journalA)
	cfgA.ID = ring.NodeID("node-0")
	a, err := NewNode(cfgA)
	if err != nil {
		t.Fatalf("NewNode A: %v", err)
	}
	b, err := NewNode(NodeConfig{
		ID:            ring.NodeID("node-1"),
		Store:         hashdb.CreateMem(nil, hashdb.Options{}),
		CacheSize:     256,
		BloomExpected: 1 << 12,
	})
	if err != nil {
		t.Fatalf("NewNode B: %v", err)
	}
	c, err := NewCluster(ClusterConfig{Replicas: 2}, a, b)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c, b
}
