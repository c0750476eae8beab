package hashdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/parallel"
)

// TestResizeSplitsGrowBuckets drives a tiny table far past its create-time
// capacity and verifies that linear-hashing splits grew the
// bucket count online, every key stayed retrievable through the growth,
// and the file remains structurally sound.
func TestResizeSplitsGrowBuckets(t *testing.T) {
	db := newTestDB(t, Options{Buckets: 2})
	const n = 4000
	for i := uint64(0); i < n; i++ {
		if _, err := db.Put(fp(i), Value(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	st := db.Stats()
	if st.Splits == 0 {
		t.Fatal("no splits happened; table did not grow")
	}
	if st.Buckets <= st.BaseBuckets {
		t.Fatalf("Buckets = %d, want > base %d", st.Buckets, st.BaseBuckets)
	}
	if want := st.BaseBuckets<<st.Level + st.SplitPointer; st.Buckets != want {
		t.Fatalf("Buckets = %d, level/pointer say %d", st.Buckets, want)
	}
	for i := uint64(0); i < n; i++ {
		v, ok, err := db.Get(fp(i))
		if err != nil || !ok || v != Value(i) {
			t.Fatalf("Get(%d) after growth = (%v, %v, %v)", i, v, ok, err)
		}
	}
	if _, ok, _ := db.Get(fp(n + 1)); ok {
		t.Fatal("absent key reported present after growth")
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check after growth: %v", err)
	}
}

// TestResizeKeepsChainsShort: a table started at four buckets and driven to
// fifteen hundred entries a bucket holds its chains flat by splitting, and
// its unsplit buckets' fill at or under sweepTo after every write.
func TestResizeKeepsChainsShort(t *testing.T) {
	const n = 6000
	db := newTestDB(t, Options{Buckets: 4})
	for i := uint64(0); i < n; i++ {
		if _, err := db.Put(fp(i), Value(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
		if fill := db.Stats().UnsplitFill; fill > sweepTo {
			t.Fatalf("after %d puts: unsplit fill %.1f above sweepTo %.1f", i+1, fill, sweepTo)
		}
	}
	if st := db.Stats(); st.MaxChain > 2 {
		t.Fatalf("a write walked a chain of %d pages", st.MaxChain)
	}
}

// TestResizeStatePersistsAcrossReopen verifies the header round-trips the
// growth state: after splits, close and reopen restore the same
// level/pointer/bucket-directory and every key.
func TestResizeStatePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grow.shdb")
	db, err := create(path, Options{Buckets: 2})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const n = 3000
	for i := uint64(0); i < n; i++ {
		if _, err := db.Put(fp(i), Value(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	before := db.Stats()
	if before.Splits == 0 {
		t.Fatal("seed made no splits")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db, err = Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if rs := db.Recovery(); rs.Runs != 0 {
		t.Fatalf("clean reopen ran recovery: %+v", rs)
	}
	after := db.Stats()
	if after.Buckets != before.Buckets || after.Level != before.Level || after.SplitPointer != before.SplitPointer {
		t.Fatalf("growth state did not persist: before %d/%d/%d, after %d/%d/%d",
			before.Buckets, before.Level, before.SplitPointer,
			after.Buckets, after.Level, after.SplitPointer)
	}
	if after.Entries != n || after.OverflowPages != before.OverflowPages {
		t.Fatalf("Entries, OverflowPages = %d, %d after reopen, want %d, %d", after.Entries, after.OverflowPages, n, before.OverflowPages)
	}
	for i := uint64(0); i < n; i++ {
		v, ok, err := db.Get(fp(i))
		if err != nil || !ok || v != Value(i) {
			t.Fatalf("Get(%d) after reopen = (%v, %v, %v)", i, v, ok, err)
		}
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check after reopen: %v", err)
	}
}

// TestCreateStartsSmall pins what a default-created table is: startBuckets,
// then the size of its content — the unsplit buckets' fill at or under
// sweepTo, a file within a small multiple of the entries' own bytes — and
// still one page read per lookup: no write path walk ever saw a chain over
// two pages and overflow pages stay under 1 % of the buckets at every point
// of every level, the ends of the sweeps included, where the unsplit buckets
// carry sweepTo.
func TestCreateStartsSmall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "small.shdb")
	db, err := create(path, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer db.Close()
	fileSize := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if st := db.Stats(); st.Buckets != startBuckets {
		t.Fatalf("default table: %d buckets, want %d", st.Buckets, startBuckets)
	}
	if sz := fileSize(); sz > 2<<20 {
		t.Fatalf("an empty default table is %d bytes, want <= 2 MiB", sz)
	}
	const batch = 1024
	total := 300 * batch // four doublings past the first split
	if raceEnabled {
		total = 100 * batch // one goroutine: two doublings under the detector
	}
	pairs := make([]Pair, batch)
	for n := 0; n < total; {
		for i := range pairs {
			pairs[i] = Pair{FP: fp(uint64(n + i)), Val: Value(n + i)}
		}
		if _, _, err := db.PutBatch(t.Context(), pairs); err != nil {
			t.Fatalf("PutBatch at %d: %v", n, err)
		}
		n += batch
		st := db.Stats()
		if st.Entries != uint64(n) {
			t.Fatalf("Entries = %d after %d inserts", st.Entries, n)
		}
		if st.Splits == 0 {
			continue // still inside the base: its size is startBuckets, not the content's
		}
		if st.UnsplitFill > sweepTo {
			t.Fatalf("n=%d: unsplit fill %.1f above sweepTo %.1f (%d buckets)", n, st.UnsplitFill, sweepTo, st.Buckets)
		}
		if st.MaxChain > 2 {
			t.Fatalf("n=%d: a write walked a chain of %d pages", n, st.MaxChain)
		}
		if st.OverflowPages*100 > st.Buckets {
			t.Fatalf("n=%d: %d overflow pages over %d buckets (level %d, split %d), want <= 1 %%",
				n, st.OverflowPages, st.Buckets, st.Level, st.SplitPointer)
		}
		if sz, bound := fileSize(), int64(3*float64(n)*PageSize/sweepFrom); sz > bound {
			t.Fatalf("n=%d: file is %d bytes, want <= %d (3 x entries x %d / sweepFrom)", n, sz, bound, PageSize)
		}
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestSweepBoundsEveryBatch holds the split schedule to its bounds after every
// PutBatch of a single pair, of a front's 1 024 and of a 32 768-pair destage
// wave, through three doublings of a default table: no split while the batch
// leaves the unsplit fill under sweepFrom, that fill at or under sweepTo,
// chains of at most two pages, and never more buckets than the constant 0.45
// load factor this schedule replaced would hold for the same entries.
func TestSweepBoundsEveryBatch(t *testing.T) {
	for _, size := range []int{1, 1024, 32768} {
		t.Run(fmt.Sprintf("batch=%d", size), func(t *testing.T) {
			opts := Options{}
			if size == 1 {
				opts.Buckets = 32 // the same sweeps in an eighth of the calls
			}
			db := newTestDB(t, opts)
			base := db.Stats().BaseBuckets
			// oldBuckets is what the 0.45 schedule would hold for e entries.
			oldBuckets := func(e uint64) uint64 { return max(base, uint64(float64(e)/(sweepTo/2))+1) }
			pairs := make([]Pair, size)
			for n := 0; db.Stats().Level < 3; n += size {
				for i := range pairs {
					pairs[i] = Pair{FP: fp(uint64(n + i)), Val: Value(n + i)}
				}
				before := db.Stats()
				if _, _, err := db.PutBatch(t.Context(), pairs); err != nil {
					t.Fatalf("PutBatch at %d: %v", n, err)
				}
				st := db.Stats()
				ahead := float64(before.Entries+uint64(size)) / float64(base<<before.Level)
				switch {
				case ahead < sweepFrom && st.Splits != before.Splits:
					t.Fatalf("n=%d: %d splits at an unsplit fill of %.1f, under sweepFrom", n, st.Splits-before.Splits, ahead)
				case st.UnsplitFill > sweepTo:
					t.Fatalf("n=%d: unsplit fill %.1f above sweepTo %.1f", n, st.UnsplitFill, sweepTo)
				case st.MaxChain > 2:
					t.Fatalf("n=%d: a write walked a chain of %d pages", n, st.MaxChain)
				case st.Buckets > oldBuckets(st.Entries):
					t.Fatalf("n=%d: %d buckets for %d entries, the 0.45 schedule held %d", n, st.Buckets, st.Entries, oldBuckets(st.Entries))
				}
			}
		})
	}
}

// rangeOnce enumerates db into a map, failing if Range delivers a fingerprint
// twice: on a quiet table an entry that shows up twice is stored twice.
func rangeOnce(t *testing.T, db *DB, where string) map[fingerprint.Fingerprint]Value {
	t.Helper()
	seen := make(map[fingerprint.Fingerprint]Value, db.Len())
	if err := db.Range(func(f fingerprint.Fingerprint, v Value) bool {
		if _, dup := seen[f]; dup {
			t.Fatalf("%s: Range delivered %s twice", where, f.Short())
		}
		seen[f] = v
		return true
	}); err != nil {
		t.Fatalf("%s: Range: %v", where, err)
	}
	return seen
}

// TestGrowFromBaseUnderBatches grows a default-created table from its 256
// buckets to some thousands under the traffic a node gives it — foreground
// PutBatch and GetBatch callers and a destage-shaped wave on the background
// lane, all at once — with every answer checked against what was acked. A
// split now lands between most batches' grouping and their stripe locks, so
// the stale-retry rounds must have run, and nothing may be lost or doubled.
func TestGrowFromBaseUnderBatches(t *testing.T) {
	db := newTestDB(t, Options{})
	const (
		writers   = 3 // the last one is the background wave
		batch     = 512
		waveBatch = 8192
		share     = batch / (2 * writers) // keys a read batch asks each writer's range for
	)
	wantBuckets := uint64(4000)
	if testing.Short() {
		wantBuckets = 1000
	}
	// wantBuckets × sweepFrom entries grow any table past wantBuckets.
	per := int(float64(wantBuckets)*sweepFrom)/writers + waveBatch
	ctx := t.Context()
	var acked [writers]atomic.Int64 // keys [w<<32, w<<32+acked[w]) are stored, value = key
	key := func(w, i int) uint64 { return uint64(w)<<32 | uint64(i) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			size, wctx := batch, ctx
			if w == writers-1 {
				size, wctx = waveBatch, parallel.Background(ctx, new(atomic.Bool))
			}
			pairs := make([]Pair, size)
			for at := 0; at < per; at += size {
				for i := range pairs {
					pairs[i] = Pair{FP: fp(key(w, at+i)), Val: Value(key(w, at+i))}
				}
				created, _, err := db.PutBatch(wctx, pairs)
				if err != nil {
					t.Errorf("writer %d PutBatch at %d: %v", w, at, err)
					return
				}
				for i, c := range created {
					if !c {
						t.Errorf("writer %d: key %d of batch at %d reported an update", w, i, at)
						return
					}
				}
				acked[w].Store(int64(at + size))
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			fps := make([]fingerprint.Fingerprint, 0, batch)
			keys := make([]uint64, 0, batch)
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				// Acked keys from all over every writer's range, and as many
				// keys nobody ever writes.
				fps, keys = fps[:0], keys[:0]
				for w := 0; w < writers; w++ {
					if n := int(acked[w].Load()); n > 0 {
						for j := 0; j < share; j++ {
							keys = append(keys, key(w, (round*131+j*977+r)%n))
						}
					}
				}
				for len(keys) < batch {
					keys = append(keys, key(writers, round*batch+len(keys)))
				}
				for _, k := range keys {
					fps = append(fps, fp(k))
				}
				vals, found, err := db.GetBatch(ctx, fps)
				if err != nil {
					t.Errorf("GetBatch: %v", err)
					return
				}
				for i, k := range keys {
					stored := k>>32 < writers
					if found[i] != stored || (stored && vals[i] != Value(k)) {
						t.Errorf("GetBatch key %#x = (%v, %v), want stored=%v", k, vals[i], found[i], stored)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	st := db.Stats()
	if st.BaseBuckets != startBuckets || st.Buckets < wantBuckets {
		t.Fatalf("grew %d -> %d buckets, want %d -> at least %d", st.BaseBuckets, st.Buckets, startBuckets, wantBuckets)
	}
	if st.StaleRetries == 0 {
		t.Fatalf("no batch ever retried a key a split displaced (%d splits): the retry path did not run", st.Splits)
	}
	t.Logf("%d buckets, %d splits, %d stale-retry rounds, %d overflow pages, max chain %d",
		st.Buckets, st.Splits, st.StaleRetries, st.OverflowPages, st.MaxChain)
	// Everything acked is there exactly once.
	seen := rangeOnce(t, db, "after growth")
	for w := 0; w < writers; w++ {
		for i := 0; i < int(acked[w].Load()); i++ {
			if v, ok := seen[fp(key(w, i))]; !ok || v != Value(key(w, i)) {
				t.Fatalf("writer %d key %d acked, table has (%d, %v)", w, i, v, ok)
			}
		}
	}
	if uint64(len(seen)) != st.Entries {
		t.Fatalf("Range saw %d entries, Stats says %d", len(seen), st.Entries)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestSplitConcurrentWritesAndReads hammers a splitting table from many
// goroutines: the stale-retry protocol must route every displaced probe to
// its new bucket. Run under -race this also checks the split/reader
// synchronization.
func TestSplitConcurrentWritesAndReads(t *testing.T) {
	db := newTestDB(t, Options{Buckets: 2})
	const (
		writers = 4
		perW    = 1500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * perW)
			for i := uint64(0); i < perW; i++ {
				if _, err := db.Put(fp(base+i), Value(base+i)); err != nil {
					t.Errorf("Put(%d): %v", base+i, err)
					return
				}
				if i%64 == 0 { // interleave reads with ongoing splits
					if _, _, err := db.Get(fp(base + i/2)); err != nil {
						t.Errorf("Get: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := db.Stats()
	if st.Splits == 0 {
		t.Fatal("concurrent load made no splits")
	}
	if st.Entries != writers*perW {
		t.Fatalf("Entries = %d, want %d", st.Entries, writers*perW)
	}
	for i := uint64(0); i < writers*perW; i++ {
		v, ok, err := db.Get(fp(i))
		if err != nil || !ok || v != Value(i) {
			t.Fatalf("Get(%d) = (%v, %v, %v)", i, v, ok, err)
		}
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestSplitBatchedWritesDuringGrowth drives growth through PutBatch /
// GetBatch, whose lock-free grouping races the split's bucket remapping;
// the stale-retry rounds must converge with nothing lost.
func TestSplitBatchedWritesDuringGrowth(t *testing.T) {
	db := newTestDB(t, Options{Buckets: 2})
	const (
		batches   = 30
		batchSize = 200
	)
	for b := 0; b < batches; b++ {
		pairs := make([]Pair, batchSize)
		for i := range pairs {
			k := uint64(b*batchSize + i)
			pairs[i] = Pair{FP: fp(k), Val: Value(k)}
		}
		created, _, err := db.PutBatch(t.Context(), pairs)
		if err != nil {
			t.Fatalf("PutBatch %d: %v", b, err)
		}
		for i, c := range created {
			if !c {
				t.Fatalf("batch %d pair %d reported update, want create", b, i)
			}
		}
	}
	if st := db.Stats(); st.Splits == 0 {
		t.Fatal("batched load made no splits")
	}
	probe := make([]fingerprint.Fingerprint, batches*batchSize)
	for i := range probe {
		probe[i] = fp(uint64(i))
	}
	vals, found, err := db.GetBatch(t.Context(), probe)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i := range vals {
		if !found[i] || vals[i] != Value(i) {
			t.Fatalf("GetBatch[%d] = (%v, %v)", i, vals[i], found[i])
		}
	}
}

// TestCompactRepacksSparseChains deletes most of a long chain and checks
// Compact packs the survivors into fewer pages and reclaims the rest into
// the free list.
func TestCompactRepacksSparseChains(t *testing.T) {
	pinShape(t)
	db := newTestDB(t, Options{Buckets: 1})
	n := SlotsPerPage * 4 // five-page chain
	for i := 0; i < n; i++ {
		if _, err := db.Put(fp(uint64(i)), Value(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	// Delete three quarters, scattered so every page goes sparse without
	// emptying (an emptied page would be unlinked by Delete itself).
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			continue
		}
		if ok, err := db.Delete(fp(uint64(i))); err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v, %v)", i, ok, err)
		}
	}
	before := db.Stats()
	cs, err := db.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if cs.PagesFreed == 0 || cs.ChainsPacked == 0 {
		t.Fatalf("Compact freed nothing: %+v", cs)
	}
	after := db.Stats()
	if after.OverflowPages >= before.OverflowPages {
		t.Fatalf("OverflowPages %d -> %d, want a decrease", before.OverflowPages, after.OverflowPages)
	}
	if after.FreePages == 0 {
		t.Fatal("no pages reached the free list")
	}
	if after.Pages != before.Pages {
		t.Fatalf("Compact changed the file size: %d -> %d pages", before.Pages, after.Pages)
	}
	for i := 0; i < n; i++ {
		v, ok, err := db.Get(fp(uint64(i)))
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if want := i%4 == 0; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
		if ok && v != Value(i) {
			t.Fatalf("Get(%d) = %v, want %v", i, v, i)
		}
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check after Compact: %v", err)
	}
}

// TestFreelistReuseBoundsFileGrowth fills, deletes, compacts, then fills
// again: the second fill must drain the free list before the file grows.
func TestFreelistReuseBoundsFileGrowth(t *testing.T) {
	pinShape(t)
	db := newTestDB(t, Options{Buckets: 1})
	n := SlotsPerPage * 4
	for i := 0; i < n; i++ {
		db.Put(fp(uint64(i)), Value(i))
	}
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			continue
		}
		db.Delete(fp(uint64(i)))
	}
	if _, err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := db.Stats()
	if st.FreePages == 0 {
		t.Fatal("compaction produced no free pages")
	}
	pagesBefore := st.Pages
	// Refill roughly what was deleted: page demand is covered by the free
	// list, so the file must not grow.
	for i := n; i < n+n/2; i++ {
		if _, err := db.Put(fp(uint64(i)), Value(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	st = db.Stats()
	if st.Pages != pagesBefore {
		t.Fatalf("file grew from %d to %d pages with %d free pages available",
			pagesBefore, st.Pages, st.FreePages)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestFreelistDeleteChurnKeepsChainsFlat is the Delete regression this PR
// fixes: emptied overflow pages used to stay linked forever, so
// delete-heavy churn grew chains without bound. With unlink + free-list
// reuse, chain length and file size stay flat across churn cycles.
func TestFreelistDeleteChurnKeepsChainsFlat(t *testing.T) {
	pinShape(t)
	db := newTestDB(t, Options{Buckets: 1})
	wave := SlotsPerPage * 2 // two fresh pages per wave
	var pagesHigh uint64
	for cycle := 0; cycle < 12; cycle++ {
		base := uint64(cycle * wave)
		for i := uint64(0); i < uint64(wave); i++ {
			if _, err := db.Put(fp(base+i), Value(base+i)); err != nil {
				t.Fatalf("cycle %d Put: %v", cycle, err)
			}
		}
		for i := uint64(0); i < uint64(wave); i++ {
			if ok, err := db.Delete(fp(base + i)); err != nil || !ok {
				t.Fatalf("cycle %d Delete = (%v, %v)", cycle, ok, err)
			}
		}
		if st := db.Stats(); st.Pages > pagesHigh {
			pagesHigh = st.Pages
		}
	}
	st := db.Stats()
	// Churn of two pages' worth of entries should never need more than a
	// few pages total, and must not scale with the cycle count.
	if st.MaxChain > 4 {
		t.Fatalf("MaxChain = %d after churn, want <= 4 (emptied pages not unlinked?)", st.MaxChain)
	}
	if pagesHigh > 1+1+6 { // header + bucket page + small slack
		t.Fatalf("file peaked at %d pages during churn, want bounded (freed pages not reused?)", pagesHigh)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check after churn: %v", err)
	}
}

// TestCompactDuringRangeAndWrites runs Compact, Range, and writers
// concurrently; chunked Range locking means none of them may deadlock or
// starve, and the table must stay consistent.
func TestCompactDuringRangeAndWrites(t *testing.T) {
	db := newTestDB(t, Options{Buckets: 2})
	const n = 2000
	for i := uint64(0); i < n; i++ {
		db.Put(fp(i), Value(i))
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(n); i < n+500; i++ {
			if _, err := db.Put(fp(i), Value(i)); err != nil {
				t.Errorf("Put(%d): %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		seen := 0
		err := db.Range(func(k fingerprint.Fingerprint, v Value) bool {
			seen++
			return true
		})
		if err != nil {
			t.Errorf("Range: %v", err)
		}
		if seen < n {
			t.Errorf("Range saw %d entries, want >= %d", seen, n)
		}
	}()
	if _, err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestRangeDoesNotBlockWriters pins the chunked-locking fix: Range used to
// hold every stripe read lock for the whole scan, so a slow consumer
// stalled all writers. Now the callback runs with no locks held.
func TestRangeDoesNotBlockWriters(t *testing.T) {
	db := newTestDB(t, Options{Buckets: 4})
	for i := uint64(0); i < 50; i++ {
		db.Put(fp(i), Value(i))
	}
	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	rangeDone := make(chan error, 1)
	go func() {
		rangeDone <- db.Range(func(k fingerprint.Fingerprint, v Value) bool {
			once.Do(func() { close(entered) })
			<-release
			return true
		})
	}()
	<-entered
	putDone := make(chan error, 1)
	go func() {
		_, err := db.Put(fp(1000), Value(1000))
		putDone <- err
	}()
	select {
	case err := <-putDone:
		if err != nil {
			t.Fatalf("Put during Range: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Put blocked behind a stalled Range consumer")
	}
	close(release)
	if err := <-rangeDone; err != nil {
		t.Fatalf("Range: %v", err)
	}
}
