package hashdb

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/parallel"
)

func TestPutBatchBasic(t *testing.T) {
	db := newTestDB(t, Options{})
	pairs := make([]Pair, 100)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i + 1)}
	}
	created, pages, err := db.PutBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if pages == 0 || pages >= len(pairs) {
		t.Fatalf("pagesWritten = %d, want coalesced (0 < pages < %d)", pages, len(pairs))
	}
	for i, c := range created {
		if !c {
			t.Fatalf("created[%d] = false for a fresh fingerprint", i)
		}
	}
	if db.Len() != len(pairs) {
		t.Fatalf("Len = %d, want %d", db.Len(), len(pairs))
	}
	for i := range pairs {
		v, ok, err := db.Get(pairs[i].FP)
		if err != nil || !ok || v != pairs[i].Val {
			t.Fatalf("Get(%d) = (%v,%v,%v), want (%v,true,nil)", i, v, ok, err, pairs[i].Val)
		}
	}

	// Second batch: half updates (new values), half fresh.
	second := make([]Pair, 100)
	for i := range second {
		second[i] = Pair{FP: fp(uint64(i + 50)), Val: Value(1000 + i)}
	}
	created, _, err = db.PutBatch(context.Background(), second)
	if err != nil {
		t.Fatalf("PutBatch(second): %v", err)
	}
	for i, c := range created {
		want := i >= 50 // first 50 overlap the initial batch
		if c != want {
			t.Fatalf("created[%d] = %v, want %v", i, c, want)
		}
	}
	if db.Len() != 150 {
		t.Fatalf("Len = %d, want 150", db.Len())
	}
	for i := range second {
		v, ok, _ := db.Get(second[i].FP)
		if !ok || v != second[i].Val {
			t.Fatalf("updated Get(%d) = (%v,%v), want (%v,true)", i, v, ok, second[i].Val)
		}
	}
}

func TestPutBatchDuplicateInBatch(t *testing.T) {
	db := newTestDB(t, Options{})
	pairs := []Pair{
		{FP: fp(7), Val: 1},
		{FP: fp(8), Val: 2},
		{FP: fp(7), Val: 3}, // same fingerprint again: an update, last value wins
	}
	created, _, err := db.PutBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if !created[0] || !created[1] || created[2] {
		t.Fatalf("created = %v, want [true true false]", created)
	}
	if v, ok, _ := db.Get(fp(7)); !ok || v != 3 {
		t.Fatalf("Get(dup) = (%v,%v), want (3,true)", v, ok)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
}

func TestPutBatchOverflowChains(t *testing.T) {
	// One bucket, pinned: everything chains off a single page, forcing
	// overflow allocation inside the batch.
	pinShape(t)
	db := newTestDB(t, Options{Buckets: 1})
	n := SlotsPerPage*3 + 5
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i + 1)}
	}
	created, pages, err := db.PutBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i, c := range created {
		if !c {
			t.Fatalf("created[%d] = false", i)
		}
	}
	if wantPages := 4; pages != wantPages {
		t.Fatalf("pagesWritten = %d, want %d (bucket page + 3 overflow)", pages, wantPages)
	}
	if db.Len() != n {
		t.Fatalf("Len = %d, want %d", db.Len(), n)
	}
	st := db.Stats()
	if st.OverflowPages != 3 {
		t.Fatalf("OverflowPages = %d, want 3", st.OverflowPages)
	}
	for i := range pairs {
		v, ok, _ := db.Get(pairs[i].FP)
		if !ok || v != pairs[i].Val {
			t.Fatalf("Get(%d) = (%v,%v), want (%v,true)", i, v, ok, pairs[i].Val)
		}
	}

	// A later per-key Put walks the 4-page chain: chain telemetry must
	// see it.
	if _, err := db.Put(fp(uint64(n)), Value(n+1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st = db.Stats()
	if st.MaxChain < 4 {
		t.Fatalf("MaxChain = %d, want >= 4", st.MaxChain)
	}
	var hist uint64
	for _, c := range st.ChainHist {
		hist += c
	}
	if hist == 0 {
		t.Fatal("ChainHist recorded no walks")
	}
}

func TestPutUpdateStopsAtHitPage(t *testing.T) {
	// An in-place update found on an early chain page must not pay reads
	// for the rest of the chain (the old per-key Put's early return,
	// preserved by the streaming update in putChain).
	pinShape(t)
	db, err := Create(filepath.Join(t.TempDir(), "early.shdb"), Options{Buckets: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer db.Close()
	n := SlotsPerPage*2 + 4 // three-page chain
	for i := 0; i < n; i++ {
		if _, err := db.Put(fp(uint64(i)), Value(i+1)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	readsBefore := db.Stats().Device.Reads
	// fp(0) was inserted first, so it lives on the bucket page itself.
	if created, err := db.Put(fp(0), 999); err != nil || created {
		t.Fatalf("update Put = (%v,%v), want (false,nil)", created, err)
	}
	if reads := db.Stats().Device.Reads - readsBefore; reads != 1 {
		t.Fatalf("update on the bucket page cost %d page reads, want 1", reads)
	}
	if v, ok, _ := db.Get(fp(0)); !ok || v != 999 {
		t.Fatalf("updated value = (%v,%v), want (999,true)", v, ok)
	}
}

func TestPutBatchCancelled(t *testing.T) {
	db := newTestDB(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pairs := make([]Pair, 64)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i + 1)}
	}
	if _, _, err := db.PutBatch(ctx, pairs); err != context.Canceled {
		t.Fatalf("PutBatch(cancelled) err = %v, want context.Canceled", err)
	}
	// The database must stay fully usable: a cancelled batch may have
	// written some chains and skipped others, never torn one.
	if _, _, err := db.PutBatch(context.Background(), pairs); err != nil {
		t.Fatalf("PutBatch after cancel: %v", err)
	}
	for i := range pairs {
		if v, ok, err := db.Get(pairs[i].FP); err != nil || !ok || v != pairs[i].Val {
			t.Fatalf("Get(%d) after cancelled batch = (%v,%v,%v)", i, v, ok, err)
		}
	}
}

// TestPutBatchConcurrentWithReads race-stresses batched writes against
// point and batched reads all landing on one bucket page (Buckets: 1,
// pinned), the worst case for the read-modify-write exclusion.
func TestPutBatchConcurrentWithReads(t *testing.T) {
	pinShape(t)
	db, err := Create(filepath.Join(t.TempDir(), "race.shdb"), Options{Buckets: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer db.Close()

	const keys = 96
	fps := make([]fingerprint.Fingerprint, keys)
	for i := range fps {
		fps[i] = fp(uint64(i))
	}
	val := func(i int) Value { return Value(i*7 + 1) } // fixed mapping: readers can verify

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writers: batched inserts of random slices, values fixed per key.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				lo := rng.Intn(keys)
				hi := lo + 1 + rng.Intn(keys-lo)
				pairs := make([]Pair, 0, hi-lo)
				for k := lo; k < hi; k++ {
					pairs = append(pairs, Pair{FP: fps[k], Val: val(k)})
				}
				if _, _, err := db.PutBatch(context.Background(), pairs); err != nil {
					t.Errorf("PutBatch: %v", err)
					return
				}
			}
		}(int64(w))
	}
	// Point readers.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(keys)
				v, ok, err := db.Get(fps[k])
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if ok && v != val(k) {
					t.Errorf("Get(%d) = %v, want %v", k, v, val(k))
					return
				}
			}
		}(int64(r + 2))
	}
	// Batched reader.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			vals, found, err := db.GetBatch(context.Background(), fps)
			if err != nil {
				t.Errorf("GetBatch: %v", err)
				return
			}
			for k := range fps {
				if found[k] && vals[k] != val(k) {
					t.Errorf("GetBatch(%d) = %v, want %v", k, vals[k], val(k))
					return
				}
			}
		}
	}()

	writers.Wait()
	close(stop)
	readers.Wait()
	// Final state: every key the writers covered holds its fixed value.
	for k := range fps {
		if v, ok, _ := db.Get(fps[k]); ok && v != val(k) {
			t.Fatalf("final Get(%d) = %v, want %v", k, v, val(k))
		}
	}
}

// chainPos returns the position, in its bucket's chain, of the page that
// holds fp: 0 for the bucket page, -1 when no page does.
func chainPos(t *testing.T, db *DB, f fingerprint.Fingerprint) int {
	t.Helper()
	page := make([]byte, PageSize)
	pos := 0
	for p := db.bucketPageOf(db.bucketOf(f)); p != 0; pos++ {
		if err := db.readPage(p, page); err != nil {
			t.Fatalf("readPage(%d): %v", p, err)
		}
		for j := 0; j < pageCount(page); j++ {
			if entryIs(page, j, f) {
				return pos
			}
		}
		p = pageNext(page)
	}
	return -1
}

// TestPutBatchIndexedRunsMatchModel sends seeded random waves into a
// default-created table and holds every answer to what sequential Puts into a
// map would give. A wave is groups of 1–60 pairs whose fingerprints share the
// low 24 bits of Prefix64 — one bucket at every size the table reaches, so
// one run of putChain's index — mixing appends, updates of stored entries and
// in-batch duplicates of both, up to three deep, shuffled. Three of the
// patterns recur in every wave, so their chains outgrow a page: appends grow
// overflow pages and updates land past the bucket page.
func TestPutBatchIndexedRunsMatchModel(t *testing.T) {
	ctx := context.Background()
	db := newTestDB(t, Options{})
	rng := rand.New(rand.NewSource(26))
	model := map[fingerprint.Fingerprint]Value{}
	stored := map[uint64][]fingerprint.Fingerprint{} // by pattern, in order of creation
	hot := []uint64{0x00a5a5, 0x5a5a00, 0xf0f0f0}
	var laterPage, dupStored, dupAppend, overflowWaves int
	for wave := 0; wave < 40; wave++ {
		var pairs []Pair
		groups := hot[:0:0]
		for _, h := range hot {
			if rng.Intn(2) == 0 {
				groups = append(groups, h)
			}
		}
		for len(groups) < 24 {
			groups = append(groups, uint64(rng.Intn(1<<24)))
		}
		fresh := map[fingerprint.Fingerprint]bool{} // appended earlier in this wave
		for _, pat := range groups {
			for n := 1 + rng.Intn(60); n > 0; {
				var f fingerprint.Fingerprint
				if old := stored[pat]; len(old) > 0 && rng.Intn(3) == 0 {
					f = old[rng.Intn(len(old))]
					if chainPos(t, db, f) > 0 {
						laterPage++
					}
				} else {
					f = fingerprint.FromWords(rng.Uint64()<<24|pat, rng.Uint64(), rng.Uint32())
					fresh[f] = true
					stored[pat] = append(stored[pat], f)
				}
				deep := min(n, 1+rng.Intn(3))
				switch {
				case deep == 1:
				case fresh[f]:
					dupAppend++
				default:
					dupStored++
				}
				for n -= deep; deep > 0; deep-- {
					pairs = append(pairs, Pair{FP: f, Val: Value(rng.Uint64())})
				}
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

		overflowBefore := db.Stats().OverflowPages
		created, _, err := db.PutBatch(ctx, pairs)
		if err != nil {
			t.Fatalf("wave %d: PutBatch: %v", wave, err)
		}
		if db.Stats().OverflowPages > overflowBefore {
			overflowWaves++
		}
		for i, p := range pairs {
			if _, existed := model[p.FP]; created[i] == existed {
				t.Fatalf("wave %d: created[%d] = %v, sequential Puts say %v", wave, i, created[i], !existed)
			}
			model[p.FP] = p.Val
		}
		if st := db.Stats(); st.Entries != uint64(len(model)) {
			t.Fatalf("wave %d: Stats().Entries = %d, model holds %d", wave, st.Entries, len(model))
		}
	}
	for f, want := range model {
		if v, ok, err := db.Get(f); err != nil || !ok || v != want {
			t.Fatalf("Get(%v) = %d,%v,%v, model says %d", f, v, ok, err, want)
		}
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	t.Logf("%d entries, %d overflow pages; %d updates past a bucket page, %d waves grew an overflow page, duplicates of %d stored entries and %d appends",
		len(model), db.Stats().OverflowPages, laterPage, overflowWaves, dupStored, dupAppend)
	if laterPage == 0 || overflowWaves == 0 || dupStored == 0 || dupAppend == 0 {
		t.Fatal("a case the test exists for never came up")
	}
}

func BenchmarkDBPutBatch(b *testing.B) {
	db := benchDB(b)
	const batch = 512
	pairs := make([]Pair, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range pairs {
			pairs[k] = Pair{FP: fp(uint64(i*batch + k)), Val: Value(k + 1)}
		}
		if _, _, err := db.PutBatch(context.Background(), pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// inBucket mints the k-th fingerprint of a family that all hash to bucket b
// of a table with nb buckets.
func inBucket(nb, b, k uint64) fingerprint.Fingerprint {
	f := fp(k)
	return fingerprint.FromWords(k*nb+b, f.Bucket64(), f.Tail32())
}

// TestBatchSkewedOntoOneBucket: the two batches the grouping must not
// degrade on. Every key in one bucket is one run, one chain walk growing
// through overflow pages; one fingerprint repeated is one run resolving in
// input order — the first occurrence creates, the last value wins. Both are
// checked against what sequential Puts would do.
func TestBatchSkewedOntoOneBucket(t *testing.T) {
	ctx := context.Background()
	db := newTestDB(t, Options{})
	nb := db.numBuckets()
	skewed := make([]Pair, 2*SlotsPerPage+7)
	for i := range skewed {
		skewed[i] = Pair{FP: inBucket(nb, 3, uint64(i)), Val: Value(i + 1)}
	}
	same := make([]Pair, 256)
	for i := range same {
		same[i] = Pair{FP: inBucket(nb, 5, 0), Val: Value(1000 + i)}
	}
	for name, pairs := range map[string][]Pair{"one bucket": skewed, "one key": same} {
		created, _, err := db.PutBatch(ctx, pairs)
		if err != nil {
			t.Fatalf("%s: PutBatch: %v", name, err)
		}
		model := make(map[fingerprint.Fingerprint]Value)
		fps := make([]fingerprint.Fingerprint, len(pairs))
		for i, p := range pairs {
			if _, existed := model[p.FP]; created[i] == existed {
				t.Fatalf("%s: created[%d] = %v, sequential Puts say %v", name, i, created[i], !existed)
			}
			model[p.FP], fps[i] = p.Val, p.FP
		}
		vals, found, err := db.GetBatch(ctx, fps)
		if err != nil {
			t.Fatalf("%s: GetBatch: %v", name, err)
		}
		for i, f := range fps {
			if !found[i] || vals[i] != model[f] {
				t.Fatalf("%s: GetBatch[%d] = %d,%v, sequential Puts leave %d", name, i, vals[i], found[i], model[f])
			}
		}
	}
	if st := db.Stats(); st.OverflowPages < 2 {
		t.Fatalf("OverflowPages = %d: the one-bucket batch never grew its chain", st.OverflowPages)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestAllocHashdbBatch: a batch allocates its answers, its workers and — the
// first time — its scratch; not a map entry and three or four slices per
// chain. sync.Pool drops items at random under -race, so the bounds are
// loose: they fail at one allocation per four keys.
func TestAllocHashdbBatch(t *testing.T) {
	ctx := context.Background()
	db := newTestDB(t, Options{})
	next := uint64(0)
	run := func(size int) (put, get float64) {
		const runs = 20
		batches := make([][]Pair, runs+1) // AllocsPerRun warms up with one extra run
		fps := make([][]fingerprint.Fingerprint, runs+1)
		for i := range batches {
			batches[i] = make([]Pair, size)
			fps[i] = make([]fingerprint.Fingerprint, size)
			for j := range batches[i] {
				batches[i][j] = Pair{FP: fp(next), Val: Value(next)}
				fps[i][j] = fp(next)
				next++
			}
		}
		i := 0
		put = testing.AllocsPerRun(runs, func() {
			if _, _, err := db.PutBatch(ctx, batches[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		i = 0
		get = testing.AllocsPerRun(runs, func() {
			if _, found, err := db.GetBatch(ctx, fps[i]); err != nil || !found[size-1] {
				t.Fatalf("GetBatch: %v, %v", found[size-1], err)
			}
			i++
		})
		return put, get
	}
	smallPut, smallGet := run(256)
	largePut, largeGet := run(1024)
	t.Logf("allocs per batch: PutBatch %v at 256 pairs, %v at 1024; GetBatch %v, %v", smallPut, largePut, smallGet, largeGet)
	for _, c := range []struct {
		name         string
		small, large float64
	}{{"PutBatch", smallPut, largePut}, {"GetBatch", smallGet, largeGet}} {
		if c.large > 256 {
			t.Errorf("%s: a 1024-key batch allocates %v objects; want a small constant", c.name, c.large)
		}
		if c.large > c.small+96 {
			t.Errorf("%s: allocations grow with the batch: %v at 256 keys, %v at 1024", c.name, c.small, c.large)
		}
	}
}

// goroutineFile counts the goroutines that read pages through it: the first
// one, and how many reads came from any other. The caller locks its goroutine
// to its OS thread, so no other goroutine reads on that thread and threadID
// tells them apart. It sits inside the chains eachUnit times, so it is kept
// cheap: gettid is well under 1 µs, where runtime.Stack at the depth of a
// chain walk took 13 µs on a 2-vCPU VM and pushed a page-cache chain past
// blockingChain.
type goroutineFile struct {
	File
	first  atomic.Uint64
	others atomic.Int64
}

func (f *goroutineFile) ReadAt(p []byte, off int64) (int, error) {
	if id := threadID(); !f.first.CompareAndSwap(0, id) && f.first.Load() != id {
		f.others.Add(1)
	}
	return f.File.ReadAt(p, off)
}

// distinctChains returns n pairs that land in n different buckets of db.
func distinctChains(db *DB, n int) []Pair {
	pairs, buckets := make([]Pair, 0, n), map[uint64]bool{}
	for i := uint64(0); len(pairs) < n; i++ {
		if b := db.bucketOf(fp(i)); !buckets[b] {
			buckets[b] = true
			pairs = append(pairs, Pair{FP: fp(i), Val: Value(i)})
		}
	}
	return pairs
}

// TestBackgroundWidensWhenIOBlocks pins both halves of the background lane
// as PutBatch sees it. Over storage that never blocks, a background batch of
// one-key chains reads every page on one goroutine and leaves the lane's flag
// alone. Over a file whose page I/O sleeps it notices from its first chunk
// — however few chains that chunk holds: 4 of 256, 2 of 128 — sets the flag
// and overlaps the rest: 256 chains of 1 ms reads finish in a fraction of the
// 256 ms one worker would need.
func TestBackgroundWidensWhenIOBlocks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		read   time.Duration // a page read's sleep; 0: the page cache alone
		chains int
		within time.Duration // 0: the lane must not widen
	}{
		{"account", 0, 1024, 0},
		{"sleep 1 ms", time.Millisecond, 256, 192 * time.Millisecond},
		// One worker at the nominal 100 µs would pass the bound too: the
		// goroutine count decides. Sleeps round up to about 1 ms on some hosts.
		{"sleep 100 µs", 100 * time.Microsecond, 128, 96 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "lane.shdb")
			osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f := &goroutineFile{File: osf}
			if tc.read > 0 {
				f.File = sleepFile{File: osf, read: tc.read}
			}
			db, err := CreateFile(f, path, Options{Buckets: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			pairs := distinctChains(db, tc.chains)
			var widened atomic.Bool
			runtime.LockOSThread()
			start := time.Now()
			_, _, err = db.PutBatch(parallel.Background(context.Background(), &widened), pairs)
			took := time.Since(start)
			runtime.UnlockOSThread()
			if err != nil {
				t.Fatal(err)
			}
			others := f.others.Load()
			if tc.within == 0 && widened.Load() && raceEnabled {
				t.Skip("under the race detector a page-cache chain costs more than blockingChain")
			}
			if tc.within == 0 && (others != 0 || widened.Load()) {
				t.Fatalf("%d page reads off the caller's goroutine (widened: %v), want none", others, widened.Load())
			}
			if tc.within != 0 && (others == 0 || !widened.Load() || took > tc.within) {
				t.Fatalf("%d chains took %v, %d page reads off the caller's goroutine (widened: %v): the lane did not widen", tc.chains, took, others, widened.Load())
			}
		})
	}
}
