package core

// The node-level crash-injection property harness. A write-back node with
// a journal runs a deterministic insert schedule over a store that dies at
// the Nth entry write (hashdb.Failpoint). At the instant of death the
// harness snapshots the journal file and the count of fully acknowledged
// inserts; the node is then torn down and rebuilt from exactly the durable
// state — the store's contents at the kill plus the journal snapshot — and
// two properties are asserted for every kill point:
//
//   - No acked eviction is lost. The cache (capacity C, single exact-LRU
//     stripe) evicts strictly in insert order, so after a acked inserts,
//     inserts 0..a-1-C have all been evicted — and an eviction does not
//     acknowledge until its journal record is fsynced. Every one of them
//     must be found after recovery, via the store or the journal replay.
//   - No corrupt data is served: every surviving fingerprint carries the
//     exact value it was inserted with.
//
// A second flavor runs the same schedule over an on-disk hashdb.DB, so a
// kill additionally leaves the store's own file dirty and the reopen
// exercises hashdb's recovery pass under the node's replay.

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

const (
	crashCache   = 8
	crashInserts = 48
)

func crashVal(i uint64) Value { return Value(i + 1000) }

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
		DestageBatch:    4,
		DestageInterval: 200 * time.Microsecond,
		DestageQueue:    16,
	}
}

// runCrashSchedule drives the insert schedule, counting fully
// acknowledged inserts in acked. It stops early only on errors that are
// not the injected kill (the kill surfaces asynchronously through parked
// destage errors; inserts themselves are RAM-speed and keep succeeding).
func runCrashSchedule(t *testing.T, n *Node, acked *atomic.Uint64) {
	t.Helper()
	for i := uint64(0); i < crashInserts; i++ {
		_, err := n.LookupOrInsert(context.Background(), fp(i), crashVal(i))
		if err != nil {
			if errors.Is(err, hashdb.ErrKilled) {
				return // parked destage error delivered: the store is dead
			}
			t.Fatalf("insert %d failed with non-kill error: %v", i, err)
		}
		acked.Add(1)
	}
	// Fully scheduled: force the rest out (dies mid-flush when the kill
	// point lies in the tail).
	n.Flush()
}

func TestCrashEveryKillPointRecoversAckedEvictions(t *testing.T) {
	// Probe the schedule's total store-write count with an unreachable
	// kill point.
	dir := t.TempDir()
	probeStore := hashdb.NewFailpoint(hashdb.NewMemStore(nil), math.MaxInt64, nil)
	pn, err := NewNode(crashNodeConfig(probeStore, filepath.Join(dir, "probe.wal")))
	if err != nil {
		t.Fatalf("probe NewNode: %v", err)
	}
	var probeAcked atomic.Uint64
	runCrashSchedule(t, pn, &probeAcked)
	if err := pn.Close(); err != nil {
		t.Fatalf("probe Close: %v", err)
	}
	total := probeStore.Writes()
	if total < int64(crashInserts)/2 {
		t.Fatalf("schedule issued only %d store writes; harness too weak", total)
	}

	for k := int64(1); k <= total; k++ {
		runNodeCrashPoint(t, k)
	}
}

func runNodeCrashPoint(t *testing.T, killAt int64) {
	t.Helper()
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	// A wave may write an entry twice (copied for clean-ahead, then evicted
	// dirty mid-wave), so a run can finish in fewer writes than the probe
	// counted and never reach killAt; the medium must then survive the
	// node's clean Close for the rebirth below.
	inner := durableStore{hashdb.NewMemStore(nil)}

	var (
		ackedAtKill atomic.Int64
		snapshot    atomic.Pointer[[]byte]
		acked       atomic.Uint64
	)
	// onKill runs synchronously at the killing write: capture the ack
	// count first, then the journal bytes — every insert counted below
	// completed its eviction's journal fsync before the capture, so its
	// records must be inside the snapshot.
	store := hashdb.NewFailpoint(inner, killAt, func() {
		ackedAtKill.Store(int64(acked.Load()))
		b, err := os.ReadFile(jpath)
		if err != nil {
			b = nil
		}
		snapshot.Store(&b)
	})

	n, err := NewNode(crashNodeConfig(store, jpath))
	if err != nil {
		t.Fatalf("kill=%d: NewNode: %v", killAt, err)
	}
	runCrashSchedule(t, n, &acked)
	killed := store.Killed()
	n.Close() // tears down goroutines; errors expected after a kill

	journalPath := jpath
	a := int64(acked.Load())
	if killed {
		snap := snapshot.Load()
		if snap == nil || *snap == nil {
			t.Fatalf("kill=%d: no journal snapshot captured", killAt)
		}
		journalPath = filepath.Join(dir, "crash.wal")
		if err := os.WriteFile(journalPath, *snap, 0o644); err != nil {
			t.Fatal(err)
		}
		a = ackedAtKill.Load()
	}

	// Rebirth from durable state only: the store as the kill froze it
	// plus the journal snapshot.
	n2, err := NewNode(crashNodeConfig(inner, journalPath))
	if err != nil {
		t.Fatalf("kill=%d: NewNode after crash: %v", killAt, err)
	}
	defer n2.Close()

	// Durability floor: after a acked inserts, inserts 0..a-1-C were all
	// evicted and acknowledged, so they must survive. (Without a kill,
	// the Flush+Close made everything durable.)
	mustSurvive := int64(crashInserts)
	if killed {
		mustSurvive = a - crashCache
	}
	for i := int64(0); i < mustSurvive; i++ {
		r, err := n2.Lookup(context.Background(), fp(uint64(i)))
		if err != nil {
			t.Fatalf("kill=%d: Lookup(%d) after recovery: %v", killAt, i, err)
		}
		if !r.Exists {
			t.Fatalf("kill=%d: acked eviction %d lost (acked=%d, cache=%d)", killAt, i, a, crashCache)
		}
		if r.Value != crashVal(uint64(i)) {
			t.Fatalf("kill=%d: Lookup(%d) = %d, want %d (corrupt data served)", killAt, i, r.Value, crashVal(uint64(i)))
		}
	}
	// No garbage anywhere: whatever else survived must carry its exact
	// value.
	for i := uint64(0); i < crashInserts; i++ {
		r, err := n2.Lookup(context.Background(), fp(i))
		if err != nil {
			t.Fatalf("kill=%d: Lookup(%d): %v", killAt, i, err)
		}
		if r.Exists && r.Value != crashVal(i) {
			t.Fatalf("kill=%d: Lookup(%d) = %d, want %d (corrupt data served)", killAt, i, r.Value, crashVal(i))
		}
	}
}

// TestCrashKillPointsOnDiskStore runs the same property over an on-disk
// hashdb.DB: the kill leaves the store's file unclean, so the reopen path
// is hashdb recovery plus journal replay stacked. A sparse sample of kill
// points keeps the file churn affordable; the MemStore harness above
// covers every point.
func TestCrashKillPointsOnDiskStore(t *testing.T) {
	dir := t.TempDir()
	probePath := filepath.Join(dir, "probe.shdb")
	pdb, err := hashdb.Create(probePath, hashdb.Options{Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	probeStore := hashdb.NewFailpoint(pdb, math.MaxInt64, nil)
	pn, err := NewNode(crashNodeConfig(probeStore, filepath.Join(dir, "probe.wal")))
	if err != nil {
		t.Fatalf("probe NewNode: %v", err)
	}
	var probeAcked atomic.Uint64
	runCrashSchedule(t, pn, &probeAcked)
	if err := pn.Close(); err != nil {
		t.Fatalf("probe Close: %v", err)
	}
	total := probeStore.Writes()

	for k := int64(1); k <= total; k += 3 {
		runDiskCrashPoint(t, k)
	}
}

func runDiskCrashPoint(t *testing.T, killAt int64) {
	t.Helper()
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	dbPath := filepath.Join(dir, "node.shdb")
	db, err := hashdb.Create(dbPath, hashdb.Options{Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}

	var (
		ackedAtKill atomic.Int64
		snapshot    atomic.Pointer[[]byte]
		acked       atomic.Uint64
	)
	store := hashdb.NewFailpoint(db, killAt, func() {
		ackedAtKill.Store(int64(acked.Load()))
		b, err := os.ReadFile(jpath)
		if err != nil {
			b = nil
		}
		snapshot.Store(&b)
	})
	n, err := NewNode(crashNodeConfig(store, jpath))
	if err != nil {
		t.Fatalf("kill=%d: NewNode: %v", killAt, err)
	}
	runCrashSchedule(t, n, &acked)
	killed := store.Killed()
	n.Close()

	journalPath := jpath
	a := int64(acked.Load())
	if killed {
		// The process died: the DB was never closed cleanly. Drop the
		// fd and reopen from the file — hashdb recovery runs.
		if err := db.CloseWithoutSync(); err != nil {
			t.Fatalf("kill=%d: CloseWithoutSync: %v", killAt, err)
		}
		snap := snapshot.Load()
		if snap == nil || *snap == nil {
			t.Fatalf("kill=%d: no journal snapshot captured", killAt)
		}
		journalPath = filepath.Join(dir, "crash.wal")
		if err := os.WriteFile(journalPath, *snap, 0o644); err != nil {
			t.Fatal(err)
		}
		a = ackedAtKill.Load()
	}
	db2, err := hashdb.Open(dbPath, nil)
	if err != nil {
		t.Fatalf("kill=%d: hashdb.Open after crash: %v", killAt, err)
	}
	n2, err := NewNode(crashNodeConfig(db2, journalPath))
	if err != nil {
		t.Fatalf("kill=%d: NewNode after crash: %v", killAt, err)
	}
	defer n2.Close()

	mustSurvive := int64(crashInserts)
	if killed {
		mustSurvive = a - crashCache
	}
	for i := int64(0); i < mustSurvive; i++ {
		r, err := n2.Lookup(context.Background(), fp(uint64(i)))
		if err != nil {
			t.Fatalf("kill=%d: Lookup(%d) after recovery: %v", killAt, i, err)
		}
		if !r.Exists || r.Value != crashVal(uint64(i)) {
			t.Fatalf("kill=%d: acked eviction %d = %+v, want value %d", killAt, i, r, crashVal(uint64(i)))
		}
	}
}
