package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

// TestDestageDurabilityCloseReopen is the end-to-end write-back durability
// check: every insert a write-back node acknowledged must be on disk after
// Close, including entries that were sitting in the destage buffer.
func TestDestageDurabilityCloseReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := NodeConfig{
		ID:            "wb-durability",
		CacheSize:     64, // far smaller than the insert count: constant eviction pressure
		WriteBack:     true,
		BloomExpected: 8192,
		destageBatch:  32,
		destageQueue:  128,
	}
	n, _, err := OpenNode(dir, cfg, false)
	if err != nil {
		t.Fatalf("OpenNode: %v", err)
	}
	const total = 2000
	for i := uint64(0); i < total; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i+1)); err != nil {
			t.Fatalf("LookupOrInsert(%d): %v", i, err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Close emptied the journal, so the restarted node's table holds
	// every entry on its own.
	wantJournalEmpty(t, filepath.Join(dir, "wb-durability.wal"))
	n, db2, err := OpenNode(dir, cfg, false)
	if err != nil {
		t.Fatalf("OpenNode again: %v", err)
	}
	defer n.Close()
	if db2.Len() != total {
		t.Fatalf("persisted entries = %d, want %d", db2.Len(), total)
	}
	for i := uint64(0); i < total; i++ {
		v, ok, err := db2.Get(fp(i))
		if err != nil || !ok || v != hashdb.Value(i+1) {
			t.Fatalf("reopened Get(%d) = (%v,%v,%v), want (%v,true,nil)", i, v, ok, err, i+1)
		}
	}
}

// TestDestageDurabilityFlush checks Flush (the node's Sync) drains the
// destage buffer fully: after it returns, every entry is in the store.
func TestDestageDurabilityFlush(t *testing.T) {
	store := hashdb.CreateMem(nil, hashdb.Options{})
	n := newMemNode(t, NodeConfig{
		Store:         store,
		CacheSize:     32,
		WriteBack:     true,
		BloomExpected: 4096,
		destageBatch:  16,
		destageQueue:  64,
		// A long interval: only Flush's drain (not the timer) can have
		// destaged the tail of the buffer.
		destageInterval: time.Hour,
	})
	const total = 500
	for i := uint64(0); i < total; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i+1)); err != nil {
			t.Fatalf("LookupOrInsert(%d): %v", i, err)
		}
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if store.Len() != total {
		t.Fatalf("store len after Flush = %d, want %d", store.Len(), total)
	}
	for i := uint64(0); i < total; i++ {
		v, ok, _ := store.Get(fp(i))
		if !ok || v != hashdb.Value(i+1) {
			t.Fatalf("Get(%d) = (%v,%v), want (%v,true)", i, v, ok, i+1)
		}
	}
	st, err := n.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Destage.QueueDepth != 0 {
		t.Fatalf("QueueDepth after Flush = %d, want 0", st.Destage.QueueDepth)
	}
	if st.Destage.Waves == 0 || st.Destage.Entries == 0 {
		t.Fatalf("destage counters empty after flush: %+v", st.Destage)
	}
	if st.Destage.WaveSizes.Count != int64(st.Destage.Waves) {
		t.Fatalf("WaveSizes.Count = %d, want %d", st.Destage.WaveSizes.Count, st.Destage.Waves)
	}
}

// gatedWriteStore blocks every store write until the gate is opened. If an
// eviction performed device I/O under a cache-stripe lock, inserts would
// wedge behind it; with the async pipeline they must complete while the
// store write is still parked.
type gatedWriteStore struct {
	*hashdb.DB
	gate chan struct{}
}

func (g *gatedWriteStore) Put(f fingerprint.Fingerprint, v hashdb.Value) (bool, error) {
	<-g.gate
	return g.DB.Put(f, v)
}

func (g *gatedWriteStore) PutBatch(_ context.Context, pairs []hashdb.Pair) ([]bool, int, error) {
	return putEach(g.Put, pairs)
}

// TestDestageNoDeviceIOUnderCacheLock proves the acceptance property: an
// eviction's destage issues no device I/O while holding the cache-stripe
// lock. All store writes are gated shut; inserts that trigger evictions
// must still complete, with the evicted entries answerable from the dirty
// buffer, and only a later drain performs the writes.
func TestDestageNoDeviceIOUnderCacheLock(t *testing.T) {
	gs := &gatedWriteStore{DB: hashdb.CreateMem(nil, hashdb.Options{}), gate: make(chan struct{})}
	n, err := NewNode(NodeConfig{
		ID:            ring.NodeID("gated"),
		Store:         gs,
		CacheSize:     2,
		WriteBack:     true,
		BloomExpected: 1024,
		destageBatch:  4,
		destageQueue:  64,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		// 8 inserts through a 2-entry cache: 6 evictions enqueue while
		// every store write is blocked.
		for i := uint64(0); i < 8; i++ {
			if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i+1)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("inserts: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inserts blocked: eviction destage is doing device I/O under a cache-stripe lock")
	}
	if gs.DB.Len() != 0 {
		t.Fatalf("store len = %d while writes gated, want 0", gs.DB.Len())
	}
	// Evicted-but-undestaged entries still answer through the buffer.
	for i := uint64(0); i < 8; i++ {
		r, err := n.Lookup(context.Background(), fp(i))
		if err != nil || !r.Exists || r.Value != Value(i+1) {
			t.Fatalf("Lookup(%d) with gated store = (%+v, %v), want exists", i, r, err)
		}
	}

	close(gs.gate)
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if gs.DB.Len() != 8 {
		t.Fatalf("store len after drain = %d, want 8", gs.DB.Len())
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestDestageMidDrainCancellation: cancelling a caller's context must
// never abandon dirty data the cache already evicted — the destager runs
// waves under no caller context. Every insert that was acknowledged before
// the cancellation must be durable after Flush.
func TestDestageMidDrainCancellation(t *testing.T) {
	store := hashdb.CreateMem(nil, hashdb.Options{})
	n := newMemNode(t, NodeConfig{
		Store:           store,
		CacheSize:       16,
		WriteBack:       true,
		BloomExpected:   8192,
		destageBatch:    8,
		destageQueue:    32,
		destageInterval: 100 * time.Microsecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var acked []uint64
	for i := uint64(0); i < 1000; i++ {
		if i == 500 {
			cancel() // mid-stream: drains and waves are already in motion
		}
		if _, err := n.LookupOrInsert(ctx, fp(i), Value(i+1)); err == nil {
			acked = append(acked, i)
		}
	}
	if len(acked) < 500 {
		t.Fatalf("only %d inserts acknowledged before cancellation", len(acked))
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for _, i := range acked {
		v, ok, _ := store.Get(fp(i))
		if !ok || v != hashdb.Value(i+1) {
			t.Fatalf("acknowledged insert %d not durable after cancel+flush: (%v,%v)", i, v, ok)
		}
	}
}

// TestDestageCoalescing drives a duplicate-heavy update stream through the
// write-back path: repeated updates of the same keys must coalesce in the
// dirty buffer, and group commit must write fewer pages than entries.
func TestDestageCoalescing(t *testing.T) {
	dir := t.TempDir()
	db, err := createTable(filepath.Join(dir, "coalesce.shdb"), hashdb.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	n, err := NewNode(NodeConfig{
		ID:              "coalesce",
		Store:           db,
		CacheSize:       32,
		WriteBack:       true,
		BloomExpected:   4096,
		destageBatch:    64,
		destageQueue:    256,
		destageInterval: 50 * time.Millisecond, // let waves fill instead of firing early
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	const keys = 512
	// Three passes of updates over the same key space; later passes bump
	// the value, so buffered entries get overwritten while pending.
	for pass := uint64(0); pass < 3; pass++ {
		for i := uint64(0); i < keys; i++ {
			if err := n.Insert(context.Background(), fp(i), Value(1000*pass+i)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st, err := n.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Destage.Entries == 0 || st.Destage.Pages == 0 {
		t.Fatalf("no destage activity: %+v", st.Destage)
	}
	if ratio := float64(st.Destage.Entries) / float64(st.Destage.Pages); ratio <= 1 {
		t.Fatalf("write-coalescing ratio = %.2f (entries %d / pages %d), want > 1",
			ratio, st.Destage.Entries, st.Destage.Pages)
	}
	// Every key must end at its final (pass-2) value.
	for i := uint64(0); i < keys; i++ {
		r, err := n.Lookup(context.Background(), fp(i))
		if err != nil || !r.Exists || r.Value != Value(2000+i) {
			t.Fatalf("final Lookup(%d) = (%+v, %v), want value %d", i, r, err, 2000+i)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestDestageWavesSharePagesOnYoungTable is what a table the size of its
// content buys the write-back path: a wave of half the cache lands on the few
// hundred bucket pages a young table has, not on the fourteen thousand a
// table sized for a million entries started with, so already the second wave
// of a node's life puts ten and more entries on each page it writes (2.5 on
// the pre-sized table). The stack's configuration: default-created table,
// 64 Ki-entry cache, default wave size.
func TestDestageWavesSharePagesOnYoungTable(t *testing.T) {
	db, err := createTable(filepath.Join(t.TempDir(), "young.shdb"), hashdb.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	n, err := NewNode(NodeConfig{ID: "young", Store: db, CacheSize: 1 << 16, WriteBack: true})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	ctx := context.Background()
	const batch = 2048
	destage := func() DestageStats {
		t.Helper()
		st, err := n.Stats(ctx)
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		return st.Destage
	}
	var (
		total uint64
		early DestageStats // the counters between two waves, the first behind them
	)
	pairs := make([]Pair, batch)
	for waves := uint64(0); early.Waves == 0 || waves == early.Waves; {
		for i := range pairs {
			pairs[i] = Pair{FP: fp(total + uint64(i)), Val: Value(total + uint64(i) + 1)}
		}
		if _, err := n.BatchLookupOrInsert(ctx, pairs); err != nil {
			t.Fatalf("BatchLookupOrInsert at %d: %v", total, err)
		}
		total += batch
		if total > 1<<20 {
			t.Fatal("a million inserts and no second destage wave")
		}
		ds := destage()
		if early.Waves == 0 && ds.Waves > 0 {
			// The three counters move one after the other as a wave ends:
			// a reading is between waves if the next one is the same.
			if again := destage(); again.Entries == ds.Entries && again.Pages == ds.Pages && again.Waves == ds.Waves {
				early = ds
			}
		}
		waves = ds.Waves
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	ds := destage()
	entries, pages := ds.Entries-early.Entries, ds.Pages-early.Pages
	t.Logf("first %d wave(s) %d entries on %d pages; the %d after them %d on %d; table %d buckets",
		early.Waves, early.Entries, early.Pages, ds.Waves-early.Waves, entries, pages, db.Stats().Buckets)
	if pages == 0 || float64(entries)/float64(pages) < 10 {
		t.Fatalf("after the first wave, %d entries cost %d page writes: under 10 entries a page", entries, pages)
	}
	if ds := db.Stats(); ds.Splits == 0 || uint64(db.Len()) != total {
		t.Fatalf("table after Flush: %d entries of %d, %d splits", db.Len(), total, ds.Splits)
	}
	fps := make([]fingerprint.Fingerprint, batch)
	for at := uint64(0); at < total; at += batch {
		for i := range fps {
			fps[i] = fp(at + uint64(i))
		}
		vals, found, err := db.GetBatch(ctx, fps)
		if err != nil {
			t.Fatalf("GetBatch at %d: %v", at, err)
		}
		for i := range fps {
			if !found[i] || vals[i] != Value(at+uint64(i)+1) {
				t.Fatalf("fingerprint %d after Flush = (%d, %v)", at+uint64(i), vals[i], found[i])
			}
		}
	}
}

// flakyPutStore fails the first `failures` batched writes, then recovers.
type flakyPutStore struct {
	*hashdb.DB
	remaining atomic.Int64
}

func (f *flakyPutStore) PutBatch(_ context.Context, pairs []hashdb.Pair) ([]bool, int, error) {
	if f.remaining.Add(-1) >= 0 {
		return nil, 0, fmt.Errorf("injected transient wave failure")
	}
	return putEach(f.Put, pairs)
}

// TestDestageTransientFailureRetries: one failed wave must not forfeit
// its entries — they are re-queued (still answerable from the buffer) and
// land durably once the store recovers. The parked error still surfaces.
func TestDestageTransientFailureRetries(t *testing.T) {
	fs := &flakyPutStore{DB: hashdb.CreateMem(nil, hashdb.Options{})}
	fs.remaining.Store(1) // exactly the first wave fails
	n, err := NewNode(NodeConfig{
		ID:              ring.NodeID("flaky"),
		Store:           fs,
		CacheSize:       8,
		WriteBack:       true,
		BloomExpected:   4096,
		destageBatch:    16,
		destageQueue:    64,
		destageInterval: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	const total = 200
	for i := uint64(0); i < total; i++ {
		// The parked wave error may surface on any later insert; keep
		// going — durability is what this test asserts.
		n.LookupOrInsert(context.Background(), fp(i), Value(i+1))
	}
	if err := n.Flush(); err != nil {
		// The injected failure may surface here; that is the error
		// delivery contract, not a durability failure.
		t.Logf("Flush surfaced parked error (expected): %v", err)
		if err := n.Flush(); err != nil {
			t.Fatalf("second Flush: %v", err)
		}
	}
	for i := uint64(0); i < total; i++ {
		v, ok, _ := fs.DB.Get(fp(i))
		if !ok || v != hashdb.Value(i+1) {
			t.Fatalf("entry %d lost to a transient wave failure: (%v,%v)", i, v, ok)
		}
	}
	if err := n.Close(); err != nil && err != errNodeClosed {
		t.Logf("Close: %v", err)
	}
}

// TestDestageBackpressure bounds the buffer tightly and hammers it: no
// insert may be lost even when evictions must repeatedly block for space.
func TestDestageBackpressure(t *testing.T) {
	store := hashdb.CreateMem(nil, hashdb.Options{})
	n := newMemNode(t, NodeConfig{
		Store:           store,
		CacheSize:       8,
		WriteBack:       true,
		BloomExpected:   16384,
		destageBatch:    4,
		destageQueue:    4, // one wave's worth: constant backpressure
		destageInterval: time.Millisecond,
	})
	const total = 3000
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				k := uint64(g*(total/4) + i)
				if _, err := n.LookupOrInsert(context.Background(), fp(k), Value(k+1)); err != nil {
					errs <- fmt.Errorf("insert %d: %w", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if store.Len() != total {
		t.Fatalf("store len = %d, want %d", store.Len(), total)
	}
}

// TestDestageConcurrentLookupsRace races lookups and batch lookups against
// eviction-driven destage waves under -race: once an insert is
// acknowledged, the fingerprint must answer as a duplicate from whichever
// tier currently holds it (cache, dirty buffer, or store).
func TestDestageConcurrentLookupsRace(t *testing.T) {
	store := hashdb.CreateMem(nil, hashdb.Options{})
	n := newMemNode(t, NodeConfig{
		Store:           store,
		CacheSize:       16,
		WriteBack:       true,
		BloomExpected:   16384,
		destageBatch:    8,
		destageQueue:    32,
		destageInterval: 200 * time.Microsecond,
	})
	const total = 1500
	var inserted atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; i++ {
			if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i+1)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			inserted.Store(i + 1)
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < 400; k++ {
				hi := inserted.Load()
				if hi == 0 {
					continue
				}
				i := uint64((k*31 + r*17) % int(hi))
				res, err := n.Lookup(context.Background(), fp(i))
				if err != nil {
					t.Errorf("lookup %d: %v", i, err)
					return
				}
				if !res.Exists || res.Value != Value(i+1) {
					t.Errorf("lookup %d = %+v, want exists with %d", i, res, i+1)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if store.Len() != total {
		t.Fatalf("store len = %d, want %d", store.Len(), total)
	}
}

func BenchmarkNodeWriteBackDestage(b *testing.B) {
	n, err := NewNode(NodeConfig{
		ID:            "bench-wb",
		Store:         hashdb.CreateMem(nil, hashdb.Options{}),
		CacheSize:     1 << 10,
		WriteBack:     true,
		BloomExpected: 1 << 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(uint64(i)), Value(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDestageSizesFollowTheCache pins the write-back destager's sizes: a
// wave of half the cache and a buffer of an eighth, at least 256 and 1024
// entries, and a 2ms interval.
func TestDestageSizesFollowTheCache(t *testing.T) {
	for _, tc := range []struct{ cache, batch, queue int }{
		{64, 256, 1024},
		{1 << 16, 32768, 8192},
	} {
		n := newMemNode(t, NodeConfig{CacheSize: tc.cache, WriteBack: true})
		if d := n.dst; d.batch != tc.batch || d.capacity != tc.queue || d.interval != 2*time.Millisecond {
			t.Errorf("cache %d: batch %d, queue %d, interval %v; want %d, %d, 2ms",
				tc.cache, d.batch, d.capacity, d.interval, tc.batch, tc.queue)
		}
	}
}
