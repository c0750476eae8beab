package core

// The node-level kill-point sweeps. A write-back node with a journal runs a
// schedule over a store that dies at its Nth entry write (hashdb.Failpoint);
// the node is then rebuilt from exactly what a dead process leaves — the
// store as the kill froze it and the journal as it was at that instant — and
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

// nodeSweep sweeps sched over a crash node shaped by shape, whose store is in
// memory or, onDisk, a hashdb table whose reopen runs hashdb recovery under
// the journal replay.
func nodeSweep(sched simtest.Schedule, onDisk bool, shape func(NodeConfig) NodeConfig) simtest.Sweep {
	return simtest.Sweep{
		Probe: func(t *testing.T) int64 {
			dir := t.TempDir()
			probe := hashdb.NewFailpoint(crashStore(t, dir, onDisk), math.MaxInt64, nil)
			n, err := NewNode(shape(crashNodeConfig(probe, filepath.Join(dir, "node.wal"))))
			if err != nil {
				t.Fatalf("probe NewNode: %v", err)
			}
			if err := sched.Run(nodeTarget{n}, simtest.NewModel()); err != nil {
				t.Fatalf("probe schedule: %v", err)
			}
			if err := n.Close(); err != nil {
				t.Fatalf("probe Close: %v", err)
			}
			return probe.Writes()
		},
		Kill: func(t *testing.T, kill int64, _ int) { nodeKill(t, sched, onDisk, shape, kill) },
	}
}

// crashStore is the medium a crash node writes to. The in-memory one
// survives the node's Close: a wave may write an entry twice (copied for
// clean-ahead, then evicted dirty mid-wave), so a run can finish in fewer
// writes than its probe counted and then closes cleanly before its rebirth.
func crashStore(t *testing.T, dir string, onDisk bool) hashdb.Store {
	if !onDisk {
		return durableStore{hashdb.NewMemStore()}
	}
	db, err := hashdb.Create(filepath.Join(dir, "node.shdb"), hashdb.Options{Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func nodeKill(t *testing.T, sched simtest.Schedule, onDisk bool, shape func(NodeConfig) NodeConfig, kill int64) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	inner := crashStore(t, dir, onDisk)
	m := simtest.NewModel()
	var snap []byte
	store := hashdb.NewFailpoint(inner, kill, func() {
		m.Crash()
		snap, _ = os.ReadFile(jpath)
	})
	n, err := NewNode(shape(crashNodeConfig(store, jpath)))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if err := sched.Run(nodeTarget{n}, m); err != nil && !errors.Is(err, hashdb.ErrKilled) {
		t.Fatalf("schedule failed with a non-kill error: %v", err)
	}
	n.Close() // tears down goroutines; errors expected after a kill

	var ex simtest.Excuse
	if store.Killed() {
		if snap == nil {
			t.Fatal("no journal snapshot captured at the kill")
		}
		jpath, ex.Window = crashWAL(t, dir, snap), crashCache
		if db, ok := inner.(*hashdb.DB); ok {
			// The process died: the table was never closed cleanly.
			if err := db.CloseWithoutSync(); err != nil {
				t.Fatalf("CloseWithoutSync: %v", err)
			}
		}
	}
	if onDisk {
		if inner, err = hashdb.Open(filepath.Join(dir, "node.shdb")); err != nil {
			t.Fatalf("hashdb.Open after the crash: %v", err)
		}
	}
	n2, err := NewNode(crashNodeConfig(inner, jpath))
	if err != nil {
		t.Fatalf("NewNode after the crash: %v", err)
	}
	defer n2.Close()
	if err := m.Check(lookupVia(n2), ex); err != nil {
		t.Fatal(err)
	}
}

func TestCrashEveryKillPointRecoversAckedEvictions(t *testing.T) {
	sweepDestagers(t, func(shape func(NodeConfig) NodeConfig) simtest.Sweep {
		sw := nodeSweep(crashOps, false, shape)
		sw.Floor = crashInserts / 2
		return sw
	})
}

// TestCrashKillPointsOnDiskStore runs the sweep over an on-disk table, so the
// reopen is hashdb recovery plus journal replay stacked. Every third point
// keeps the file churn affordable; the in-memory sweep covers every point.
// Over a table a run issues a few writes more than it inserts keys, how many
// depending on how the destager's waves interleave the inserts, so the sweep
// reaches past crashInserts whatever one probe counted; a point the run
// never reaches is a clean close and reopen.
func TestCrashKillPointsOnDiskStore(t *testing.T) {
	sweepDestagers(t, func(shape func(NodeConfig) NodeConfig) simtest.Sweep {
		sw := nodeSweep(crashOps, true, shape)
		sw.Step, sw.Through = 3, crashInserts+crashCache/2
		return sw
	})
}

// FuzzNodeCrashSchedule composes crash × destage wave × hashdb recovery ×
// journal replay: a schedule generated from seed runs on a crash node over an
// on-disk table that dies at its kill-th entry write. The seed corpus runs
// with the tests.
func FuzzNodeCrashSchedule(f *testing.F) {
	f.Add(int64(1), uint16(5))
	f.Add(int64(2), uint16(40))
	f.Add(int64(3), uint16(90))
	f.Add(int64(4), uint16(150))
	f.Add(int64(5), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, kill uint16) {
		nodeKill(t, insertsOnly(simtest.Generate(seed, 200, 25)), true, backlogged, int64(kill)+1)
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
	run := func(t *testing.T, store hashdb.Store) (*Cluster, *Node, *simtest.Model) {
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
			probe := hashdb.NewFailpoint(hashdb.NewMemStore(), math.MaxInt64, nil)
			c, _, _ := run(t, probe)
			c.Close() // flushes the owner's destage tail through the probe store
			return probe.Writes()
		},
		Kill: func(t *testing.T, kill int64, _ int) {
			c, b, m := run(t, hashdb.NewFailpoint(hashdb.NewMemStore(), kill, nil))
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
		Store:         hashdb.NewMemStore(),
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
