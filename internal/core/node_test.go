package core

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

func fp(i uint64) fingerprint.Fingerprint { return fingerprint.FromUint64(i) }

func newMemNode(t *testing.T, cfg NodeConfig) *Node {
	t.Helper()
	if cfg.ID == "" {
		cfg.ID = "test-node"
	}
	if cfg.Store == nil {
		cfg.Store = hashdb.CreateMem(nil, hashdb.Options{})
	}
	if cfg.BloomExpected == 0 {
		cfg.BloomExpected = 10000
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(NodeConfig{ID: "x"}); err == nil {
		t.Fatal("NewNode without store succeeded")
	}
	if _, err := NewNode(NodeConfig{Store: hashdb.CreateMem(nil, hashdb.Options{})}); err == nil {
		t.Fatal("NewNode without ID succeeded")
	}
	if _, err := NewNode(NodeConfig{ID: "x", Store: hashdb.CreateMem(nil, hashdb.Options{}), WriteBack: true}); err == nil {
		t.Fatal("NewNode with WriteBack but no cache succeeded")
	}
}

func TestLookupOrInsertFlow(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 8})

	// First sight: new fingerprint. With the Bloom filter on, the miss is
	// short-circuited without an SSD read.
	r, err := n.LookupOrInsert(context.Background(), fp(1), 100)
	if err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if r.Exists {
		t.Fatal("first lookup reported exists")
	}
	if r.Source != SourceBloom {
		t.Fatalf("first lookup source = %v, want bloom", r.Source)
	}

	// Second sight: cache hit (it was just inserted and cached).
	r, err = n.LookupOrInsert(context.Background(), fp(1), 999)
	if err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if !r.Exists || r.Value != 100 || r.Source != SourceCache {
		t.Fatalf("second lookup = %+v, want exists via cache with value 100", r)
	}
}

func TestLookupFromStoreAfterCacheEviction(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 2})
	n.LookupOrInsert(context.Background(), fp(1), 1)
	n.LookupOrInsert(context.Background(), fp(2), 2)
	n.LookupOrInsert(context.Background(), fp(3), 3) // evicts fp(1)

	r, err := n.LookupOrInsert(context.Background(), fp(1), 999)
	if err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if !r.Exists || r.Value != 1 {
		t.Fatalf("evicted entry lookup = %+v, want exists value 1", r)
	}
	if r.Source != SourceStore {
		t.Fatalf("source = %v, want store (cache was evicted)", r.Source)
	}
}

func TestBloomDisabledGoesToStore(t *testing.T) {
	n := newMemNode(t, NodeConfig{noBloom: true, CacheSize: 4})
	r, err := n.LookupOrInsert(context.Background(), fp(1), 1)
	if err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if r.Source != SourceNew {
		t.Fatalf("source = %v, want new (store miss without bloom)", r.Source)
	}
	st, _ := n.Stats(context.Background())
	if st.BloomShort != 0 {
		t.Fatal("bloom counters advanced with bloom disabled")
	}
	if st.StoreMisses != 1 {
		t.Fatalf("StoreMisses = %d, want 1", st.StoreMisses)
	}
}

func TestNoCacheStillCorrect(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 0})
	n.LookupOrInsert(context.Background(), fp(1), 42)
	r, err := n.LookupOrInsert(context.Background(), fp(1), 0)
	if err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if !r.Exists || r.Value != 42 || r.Source != SourceStore {
		t.Fatalf("cacheless lookup = %+v, want exists 42 via store", r)
	}
}

func TestReadOnlyLookupDoesNotInsert(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 4})
	r, err := n.Lookup(context.Background(), fp(1))
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if r.Exists {
		t.Fatal("Lookup of absent fp reported exists")
	}
	// Still absent afterwards.
	r, _ = n.Lookup(context.Background(), fp(1))
	if r.Exists {
		t.Fatal("read-only Lookup inserted the fingerprint")
	}
	st, _ := n.Stats(context.Background())
	if st.Inserts != 0 {
		t.Fatalf("Inserts = %d, want 0", st.Inserts)
	}
}

func TestInsertThenLookup(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 4})
	if err := n.Insert(context.Background(), fp(9), 90); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	r, _ := n.Lookup(context.Background(), fp(9))
	if !r.Exists || r.Value != 90 {
		t.Fatalf("Lookup after Insert = %+v", r)
	}
}

func TestBatchPreservesOrderAndDetectsIntraBatchDuplicates(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 16})
	pairs := []Pair{
		{FP: fp(1), Val: 1},
		{FP: fp(2), Val: 2},
		{FP: fp(1), Val: 3}, // duplicate within the batch
	}
	rs, err := n.BatchLookupOrInsert(context.Background(), pairs)
	if err != nil {
		t.Fatalf("BatchLookupOrInsert: %v", err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3", len(rs))
	}
	if rs[0].Exists || rs[1].Exists {
		t.Fatal("fresh fingerprints reported as existing")
	}
	if !rs[2].Exists || rs[2].Value != 1 {
		t.Fatalf("intra-batch duplicate = %+v, want exists with value 1", rs[2])
	}
}

func TestWriteBackDestagesOnEviction(t *testing.T) {
	store := hashdb.CreateMem(nil, hashdb.Options{})
	// A tiny destage interval keeps the asynchronous group-commit prompt
	// even though one eviction never fills a wave.
	n := newMemNode(t, NodeConfig{Store: store, CacheSize: 2, WriteBack: true,
		destageInterval: 100 * time.Microsecond})

	n.LookupOrInsert(context.Background(), fp(1), 1)
	if store.Len() != 0 {
		t.Fatalf("write-back inserted to store immediately (len=%d)", store.Len())
	}
	n.LookupOrInsert(context.Background(), fp(2), 2)
	n.LookupOrInsert(context.Background(), fp(3), 3) // evicts fp(1) -> async destage

	// The eviction itself does no store I/O; the destager group-commits
	// the entry shortly after. Whether the wave has landed yet or not,
	// the lookup path must answer fp(1) — from the dirty buffer before,
	// from the SSD after.
	if r, err := n.Lookup(context.Background(), fp(1)); err != nil || !r.Exists || r.Value != 1 {
		t.Fatalf("evicted entry lookup = (%+v, %v), want exists with value 1", r, err)
	}
	// Only fp(1) is asserted: the Lookup above may itself have promoted
	// fp(1) back into the 2-entry cache and evicted another dirty entry,
	// so the store's total length is racy by design.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok, _ := store.Get(fp(1)); ok && v == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("evicted entry fp(1) never destaged to the store")
}

func TestWriteBackFlush(t *testing.T) {
	store := hashdb.CreateMem(nil, hashdb.Options{})
	n := newMemNode(t, NodeConfig{Store: store, CacheSize: 16, WriteBack: true})
	for i := uint64(1); i <= 5; i++ {
		n.LookupOrInsert(context.Background(), fp(i), Value(i))
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if store.Len() != 5 {
		t.Fatalf("store len after flush = %d, want 5", store.Len())
	}
}

func TestWriteBackCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	cfg := NodeConfig{ID: "wb", CacheSize: 64, WriteBack: true, BloomExpected: 1000}
	n, _, err := OpenNode(dir, cfg, false)
	if err != nil {
		t.Fatalf("OpenNode: %v", err)
	}
	for i := uint64(0); i < 20; i++ {
		n.LookupOrInsert(context.Background(), fp(i), Value(i))
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// An empty journal: the restarted node's table holds the entries on
	// its own.
	wantJournalEmpty(t, filepath.Join(dir, "wb.wal"))
	n, db, err := OpenNode(dir, cfg, false)
	if err != nil {
		t.Fatalf("OpenNode again: %v", err)
	}
	defer n.Close()
	if db.Len() != 20 {
		t.Fatalf("persisted entries = %d, want 20", db.Len())
	}
}

// TestWriteBackStoreEntries: a write-back node reports what it holds — the
// store's entries plus those acknowledged but not yet destaged — across a
// reopen, a Remove and a Flush, not the inserts since it opened.
func TestWriteBackStoreEntries(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Node, *hashdb.DB) {
		t.Helper()
		// A cache twice the inserts and an hour's interval: no wave fires
		// before Flush, so every new entry is still dirty in the cache.
		n, db, err := OpenNode(dir, NodeConfig{ID: "wb", CacheSize: 4096, WriteBack: true,
			BloomExpected: 1 << 14, destageInterval: time.Hour}, false)
		if err != nil {
			t.Fatalf("OpenNode: %v", err)
		}
		return n, db
	}
	entries := func(n *Node, want int, when string) {
		t.Helper()
		st, err := n.Stats(context.Background())
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		if st.StoreEntries != want {
			t.Fatalf("%s: StoreEntries = %d, want %d", when, st.StoreEntries, want)
		}
	}
	ctx := context.Background()

	n, _ := open()
	for i := uint64(0); i < 2000; i++ {
		n.LookupOrInsert(ctx, fp(i), Value(i+1))
	}
	entries(n, 2000, "before the first wave")
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	n, db := open()
	defer n.Close()
	entries(n, 2000, "after reopen")
	for i := uint64(0); i < 1000; i++ {
		if _, err := n.Remove(fp(i)); err != nil {
			t.Fatalf("Remove: %v", err)
		}
	}
	entries(n, 1000, "after removing 1 000")
	for i := uint64(2000); i < 2500; i++ {
		n.LookupOrInsert(ctx, fp(i), Value(i+1))
	}
	entries(n, 1500, "with 500 new entries still dirty")
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	entries(n, 1500, "after Flush")
	if db.Len() != 1500 {
		t.Fatalf("store holds %d entries after Flush, want 1500", db.Len())
	}
}

func TestStatsCounters(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 8})
	n.LookupOrInsert(context.Background(), fp(1), 1) // bloom short-circuit insert
	n.LookupOrInsert(context.Background(), fp(1), 1) // cache hit
	n.Lookup(context.Background(), fp(2))            // bloom negative, no insert

	st, err := n.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Lookups != 3 {
		t.Fatalf("Lookups = %d, want 3", st.Lookups)
	}
	if st.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", st.CacheHits)
	}
	if st.BloomShort != 2 {
		t.Fatalf("BloomShort = %d, want 2", st.BloomShort)
	}
	if st.Inserts != 1 {
		t.Fatalf("Inserts = %d, want 1", st.Inserts)
	}
	if st.StoreEntries != 1 {
		t.Fatalf("StoreEntries = %d, want 1", st.StoreEntries)
	}
}

func TestClosedNodeErrors(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 4})
	n.Close()
	if _, err := n.Lookup(context.Background(), fp(1)); err == nil {
		t.Fatal("Lookup after Close succeeded")
	}
	if _, err := n.LookupOrInsert(context.Background(), fp(1), 1); err == nil {
		t.Fatal("LookupOrInsert after Close succeeded")
	}
	if err := n.Insert(context.Background(), fp(1), 1); err == nil {
		t.Fatal("Insert after Close succeeded")
	}
	if err := n.Flush(); err == nil {
		t.Fatal("Flush after Close succeeded")
	}
}

func TestNodeRestartPreservesDedup(t *testing.T) {
	// A node restarting on its persistent hash table must rebuild its
	// Bloom filter, or every stored fingerprint would be misreported as
	// new (the filter would short-circuit to "absent").
	dir := t.TempDir()
	cfg := NodeConfig{ID: "r", CacheSize: 64, BloomExpected: 2000}
	n1, _, err := OpenNode(dir, cfg, false)
	if err != nil {
		t.Fatalf("OpenNode: %v", err)
	}
	for i := uint64(0); i < 500; i++ {
		n1.LookupOrInsert(context.Background(), fp(i), Value(i))
	}
	if err := n1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	n2, _, err := OpenNode(dir, cfg, false)
	if err != nil {
		t.Fatalf("OpenNode after restart: %v", err)
	}
	defer n2.Close()

	for i := uint64(0); i < 500; i++ {
		r, err := n2.LookupOrInsert(context.Background(), fp(i), 999)
		if err != nil {
			t.Fatalf("LookupOrInsert: %v", err)
		}
		if !r.Exists {
			t.Fatalf("fingerprint %d forgotten across restart", i)
		}
		if r.Value != Value(i) {
			t.Fatalf("fingerprint %d value = %d, want %d", i, r.Value, i)
		}
	}
	// New fingerprints still insert normally.
	r, _ := n2.LookupOrInsert(context.Background(), fp(10000), 1)
	if r.Exists {
		t.Fatal("fresh fingerprint reported existing after restart")
	}
}

func TestNodeRestartBloomSizedForExistingData(t *testing.T) {
	// Restarting on a store larger than BloomExpected must not create an
	// undersized (useless) filter.
	store := hashdb.CreateMem(nil, hashdb.Options{})
	for i := uint64(0); i < 5000; i++ {
		store.Put(fp(i), hashdb.Value(i))
	}
	n, err := NewNode(NodeConfig{ID: "big", Store: store, CacheSize: 16, BloomExpected: 100})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	for i := uint64(0); i < 5000; i++ {
		r, err := n.Lookup(context.Background(), fp(i))
		if err != nil || !r.Exists {
			t.Fatalf("fingerprint %d lost (%v)", i, err)
		}
	}
}

func TestDedupCorrectnessOnPersistentStore(t *testing.T) {
	// End-to-end node property on the real page store: every unique
	// fingerprint is created exactly once; every duplicate is detected.
	dir := t.TempDir()
	db, err := createTable(filepath.Join(dir, "dedup.shdb"), hashdb.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	n, err := NewNode(NodeConfig{ID: "d", Store: db, CacheSize: 128, BloomExpected: 4000})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()

	const uniques = 1000
	news, dups := 0, 0
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < uniques; i++ {
			r, err := n.LookupOrInsert(context.Background(), fp(i), Value(i))
			if err != nil {
				t.Fatalf("LookupOrInsert: %v", err)
			}
			if r.Exists {
				dups++
			} else {
				news++
			}
		}
	}
	if news != uniques {
		t.Fatalf("unique inserts = %d, want %d", news, uniques)
	}
	if dups != 2*uniques {
		t.Fatalf("duplicates detected = %d, want %d", dups, 2*uniques)
	}
	if db.Len() != uniques {
		t.Fatalf("store entries = %d, want %d", db.Len(), uniques)
	}
}
