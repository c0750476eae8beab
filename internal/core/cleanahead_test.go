package core

// Tests of the clean-ahead destage protocol. They run a node whose destage
// tuning is left at its zero values, so a wave is half the cache: with a
// 1 024-entry cache (one exact-LRU stripe) clean-ahead fires at 512 dirty
// entries, and the destage interval is an hour so nothing but the protocol under
// test truncates the journal or starts a wave.

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

const (
	caCache = 1024
	caWave  = caCache / 2
)

// heldStore parks every batched write between entered and release, so a
// test can act while a wave is in flight.
type heldStore struct {
	*hashdb.DB
	file    *hashdb.MemFile // what the table leaves for a restarted node
	entered chan int        // receives the size of each PutBatch as it arrives
	release chan struct{}
}

func newHeldStore() *heldStore {
	f := &hashdb.MemFile{}
	// entered is buffered for more waves than any test below starts.
	return &heldStore{DB: hashdb.CreateMem(f, hashdb.Options{}), file: f, entered: make(chan int, 64), release: make(chan struct{})}
}

func (h *heldStore) PutBatch(ctx context.Context, pairs []hashdb.Pair) ([]bool, int, error) {
	h.entered <- len(pairs)
	<-h.release
	return h.DB.PutBatch(ctx, pairs)
}

func cleanAheadNode(t *testing.T, store hashdb.Store, journalPath string) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		ID: "ca-node", Store: store, CacheSize: caCache, BloomExpected: 1 << 14,
		WriteBack: true, JournalPath: journalPath, destageInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	return n
}

func insertRange(t *testing.T, n *Node, from, to uint64) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i+1)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func journalFileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCleanAheadEvictsWithoutJournal: entries the destager cleaned ahead of
// eviction leave the cache with no journal record, no buffer slot, and so
// nothing for the insert's barrier to wait for — and are still found.
func TestCleanAheadEvictsWithoutJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "node.wal")
	store := hashdb.CreateMem(nil, hashdb.Options{})
	n := cleanAheadNode(t, store, jpath)
	defer n.Close()

	for wave := uint64(0); wave < 2; wave++ {
		insertRange(t, n, wave*caWave, (wave+1)*caWave)
		waitUntil(t, "the wave cleaned its entries", func() bool { return n.cache.DirtyLen() == 0 })
	}
	if store.Len() != caCache {
		t.Fatalf("store holds %d entries after two waves, want %d", store.Len(), caCache)
	}
	// The cache is full of clean entries; the next inserts evict the first
	// wave's.
	insertRange(t, n, caCache, caCache+caWave)
	st, err := n.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Evictions != caWave {
		t.Fatalf("evictions = %d, want %d", st.Cache.Evictions, caWave)
	}
	if lsn := n.jnl.appendedLSN(); lsn != 0 {
		t.Fatalf("%d journal records appended; clean victims need none", lsn)
	}
	if size := journalFileSize(t, jpath); size != journalHdrSize {
		t.Fatalf("journal file is %d bytes, want just its %d-byte header", size, journalHdrSize)
	}
	if st.Destage.QueueDepth != 0 || st.Destage.Coalesced != 0 {
		t.Fatalf("clean evictions reached the dirty buffer: %+v", st.Destage)
	}
	if st.Destage.Entries < caCache || st.Destage.Waves < 2 {
		t.Fatalf("destage counters do not cover the clean-ahead waves: %+v", st.Destage)
	}
	for i := uint64(0); i < caWave; i++ {
		r, err := n.Lookup(context.Background(), fp(i))
		if err != nil || !r.Exists || r.Value != Value(i+1) || r.Source != SourceStore {
			t.Fatalf("Lookup(%d) after its clean eviction = (%+v, %v), want the store's copy", i, r, err)
		}
	}
}

// TestCleanAheadRedirtyMidWaveStaysDirty: an entry given a new value while
// the wave that copied it is in flight keeps its dirty flag when the wave
// lands, and a later wave writes the new value.
func TestCleanAheadRedirtyMidWaveStaysDirty(t *testing.T) {
	store := newHeldStore()
	n := cleanAheadNode(t, store, "")
	defer n.Close()

	insertRange(t, n, 0, caWave)
	if got := <-store.entered; got != caWave {
		t.Fatalf("first wave carries %d entries, want %d", got, caWave)
	}
	const victim, newVal = 7, Value(70000)
	if err := n.Insert(context.Background(), fp(victim), newVal); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	store.release <- struct{}{}
	waitUntil(t, "the wave cleaned everything but the re-dirtied entry", func() bool { return n.cache.DirtyLen() == 1 })
	if v, ok, _ := store.DB.Get(fp(victim)); !ok || v != victim+1 {
		t.Fatalf("store holds (%v, %v) for the re-dirtied entry, want the wave's old value %d", v, ok, victim+1)
	}
	if r, err := n.Lookup(context.Background(), fp(victim)); err != nil || r.Value != newVal || r.Source != SourceCache {
		t.Fatalf("Lookup = (%+v, %v), want the new value from the cache", r, err)
	}

	close(store.release)
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if v, ok, _ := store.DB.Get(fp(victim)); !ok || v != newVal {
		t.Fatalf("store holds (%v, %v) after Flush, want the new value %d", v, ok, newVal)
	}
	if d := n.cache.DirtyLen(); d != 0 {
		t.Fatalf("%d entries still dirty after Flush", d)
	}
}

// TestCleanAheadRemoveWaitsOutTheWave: Remove of an entry a wave has copied
// blocks until the wave has landed, so the wave's write can never follow
// the delete and bring the entry back.
func TestCleanAheadRemoveWaitsOutTheWave(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "node.wal")
	store := newHeldStore()
	n := cleanAheadNode(t, store, jpath)
	defer n.Close()

	insertRange(t, n, 0, caWave)
	<-store.entered
	const victim = 5
	removed := make(chan error, 1)
	go func() {
		_, err := n.Remove(fp(victim))
		removed <- err
	}()
	select {
	case err := <-removed:
		t.Fatalf("Remove returned (%v) while the wave holding its entry was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(store.release)
	select {
	case err := <-removed:
		if err != nil {
			t.Fatalf("Remove: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Remove still blocked after the wave landed")
	}
	if _, ok, _ := store.DB.Get(fp(victim)); ok {
		t.Fatal("the wave's write landed after the delete: removed entry resurrected in the store")
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if r, err := n.Lookup(context.Background(), fp(victim)); err != nil || r.Exists {
		t.Fatalf("Lookup of the removed entry = (%+v, %v), want absent", r, err)
	}
	if store.DB.Len() != caWave-1 {
		t.Fatalf("store holds %d entries, want %d", store.DB.Len(), caWave-1)
	}
}

// TestCleanAheadStalledFallsBackToJournal: with the store stalled the
// destager cannot get ahead, so evictions take the journaled buffer path —
// every acknowledged eviction is in the journal and replays into an empty
// store — and once the store recovers Flush and Close leave the journal
// empty.
func TestCleanAheadStalledFallsBackToJournal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	store := newHeldStore()
	n := cleanAheadNode(t, store, jpath)

	// Fewer dirty evictions than the buffer holds (1 024), or the inserts
	// would block on backpressure behind the stalled store.
	const evictions = 600
	insertRange(t, n, 0, caCache+evictions)
	st, err := n.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Destage.QueueDepth != evictions {
		t.Fatalf("dirty buffer holds %d entries, want the %d evictions", st.Destage.QueueDepth, evictions)
	}
	if store.DB.Len() != 0 {
		t.Fatalf("store holds %d entries while stalled, want 0", store.DB.Len())
	}
	for i := uint64(0); i < caCache+evictions; i++ {
		r, err := n.Lookup(context.Background(), fp(i))
		if err != nil || !r.Exists || r.Value != Value(i+1) {
			t.Fatalf("Lookup(%d) with the store stalled = (%+v, %v), want found", i, r, err)
		}
	}
	// Crash here: the journal as the acknowledged inserts left it, and a
	// store that never saw a write.
	snap, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	reborn := cleanAheadNode(t, hashdb.CreateMem(nil, hashdb.Options{}), crashWAL(t, dir, snap))
	rst, err := reborn.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rst.Recovery.JournalReplayed != evictions {
		t.Fatalf("replayed %d journal records, want %d", rst.Recovery.JournalReplayed, evictions)
	}
	for i := uint64(0); i < evictions; i++ {
		r, err := reborn.Lookup(context.Background(), fp(i))
		if err != nil || !r.Exists || r.Value != Value(i+1) {
			t.Fatalf("acknowledged eviction %d after replay = (%+v, %v), want found", i, r, err)
		}
	}
	reborn.Close()

	// The store recovers: everything lands and the journal empties.
	close(store.release)
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if store.DB.Len() != caCache+evictions {
		t.Fatalf("store holds %d entries after Flush, want %d", store.DB.Len(), caCache+evictions)
	}
	if size := journalFileSize(t, jpath); size != journalHdrSize {
		t.Fatalf("journal is %d bytes after Flush, want its %d-byte header", size, journalHdrSize)
	}
	insertRange(t, n, 1<<20, 1<<20+caCache+evictions) // dirty the cache and the buffer again
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if size := journalFileSize(t, jpath); size != journalHdrSize {
		t.Fatalf("journal is %d bytes after Close, want its %d-byte header", size, journalHdrSize)
	}
	again := cleanAheadNode(t, reopen(t, store.file), jpath)
	defer again.Close()
	if ast, _ := again.Stats(context.Background()); ast.Recovery.JournalReplayed != 0 {
		t.Fatalf("clean shutdown left %d journal records to replay", ast.Recovery.JournalReplayed)
	}
	if r, err := again.LookupOrInsert(context.Background(), fp(0), 7); err != nil || !r.Exists || r.Value != 1 {
		t.Fatalf("a key flushed before the close = (%+v, %v) after the restart, want the duplicate of value 1", r, err)
	}
}

// TestJournalSurvivesManyWavesUntruncated: waves no longer truncate the
// journal each time they empty the buffer, so after sustained eviction it
// holds the records of many landed waves — still far below
// journalCheckpointBytes — and a kill at that point must replay them over a
// store that already has most of them, twice over, without changing a value.
func TestJournalSurvivesManyWavesUntruncated(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	f := &hashdb.MemFile{}
	hashdb.CreateMem(f, hashdb.Options{}).Close()
	db, killable := faultTable(t, f, math.MaxInt64, 0)
	cfg := crashNodeConfig(db, jpath)
	// Waves fire on the four-entry batch; the interval only has to keep the
	// quiet-node truncation (a hundred of them) out of a slow test run.
	cfg.destageInterval = time.Second
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	const inserts = 4000
	for i := uint64(0); i < inserts; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i+1)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%512 == 0 {
			if size := n.jnl.size(); size > journalCheckpointBytes {
				t.Fatalf("journal grew to %d bytes, past the %d-byte checkpoint bound", size, journalCheckpointBytes)
			}
		}
	}
	st, err := n.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Destage.Waves < 100 {
		t.Fatalf("only %d waves ran; the schedule is too weak", st.Destage.Waves)
	}
	killable.Kill()
	snap, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	n.Close() // error expected: the table is dead
	if len(snap) <= journalHdrSize+100*journalRecSize {
		t.Fatalf("journal snapshot is only %d bytes: waves are still truncating it", len(snap))
	}

	for round := 0; round < 2; round++ {
		// The same snapshot twice: the second replay lands on a store that
		// has absorbed every record already.
		db = reopen(t, f)
		reborn, err := NewNode(crashNodeConfig(db, crashWAL(t, dir, snap)))
		if err != nil {
			t.Fatalf("round %d: NewNode after crash: %v", round, err)
		}
		rst, _ := reborn.Stats(context.Background())
		if rst.Recovery.JournalReplayed == 0 {
			t.Fatalf("round %d: nothing replayed from a %d-byte journal", round, len(snap))
		}
		for i := uint64(0); i < inserts-crashCache; i++ {
			r, err := reborn.Lookup(context.Background(), fp(i))
			if err != nil || !r.Exists || r.Value != Value(i+1) {
				t.Fatalf("round %d: acknowledged eviction %d = (%+v, %v), want value %d", round, i, r, err, i+1)
			}
		}
		if err := reborn.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
	}
	if db.Len() > inserts {
		t.Fatalf("store holds %d entries after two replays of %d inserts", db.Len(), inserts)
	}
}

// TestCleanAheadJournalsOverAStaleRecord: a write that bypasses the journal
// must not be newer than a record the journal still holds for the same
// fingerprint — here a Remove's tombstone — or replay would undo it. The
// destager journals such an entry before writing it.
func TestCleanAheadJournalsOverAStaleRecord(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	f := &hashdb.MemFile{}
	store := hashdb.CreateMem(f, hashdb.Options{})
	n := cleanAheadNode(t, store, jpath)

	target := fingerprint.FromUint64(1 << 40)
	if err := n.Insert(context.Background(), target, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Remove(target); err != nil { // tombstone, never truncated below
		t.Fatal(err)
	}
	if err := n.Insert(context.Background(), target, 2); err != nil {
		t.Fatal(err)
	}
	insertRange(t, n, 0, caWave-1) // completes a wave's worth of dirty entries
	waitUntil(t, "the wave cleaned its entries", func() bool { return n.cache.DirtyLen() == 0 })
	if v, ok, _ := store.Get(target); !ok || v != 2 {
		t.Fatalf("store holds (%v, %v) for the re-inserted entry, want 2", v, ok)
	}
	snap, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if want := journalHdrSize + 2*journalRecSize; len(snap) != want {
		t.Fatalf("journal is %d bytes, want %d: the tombstone and one record for the re-insert", len(snap), want)
	}
	n.Close()

	// Rebirth on the store as the crash left it: the re-insert is in it.
	reborn := cleanAheadNode(t, reopen(t, f), crashWAL(t, dir, snap))
	defer reborn.Close()
	if r, err := reborn.Lookup(context.Background(), target); err != nil || !r.Exists || r.Value != 2 {
		t.Fatalf("Lookup after replay = (%+v, %v), want the re-inserted value 2 (the stale tombstone won)", r, err)
	}
}
