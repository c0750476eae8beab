package hashdb

// The kill-at-every-write sweeps. Each runs a schedule over a copy of a
// template table whose file dies at the Nth write, for every N the schedule
// reaches and several torn-write sizes, then reopens the file: recovery must
// converge (Check passes and a second open finds nothing to recover), an
// atomic kill must leave no torn state, and what is served is held to the
// contract model (internal/simtest, ARCHITECTURE "Safety contract") with a
// torn page recovery reported as the only excuse for a lost acked put.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"shhc/internal/fingerprint"
	"shhc/internal/simtest"
)

// dbTarget runs a simtest schedule against a table.
type dbTarget struct {
	db        *DB
	compacted CompactStats // the last Compact's, for a probe's guard
}

func (d *dbTarget) PutBatch(fps []fingerprint.Fingerprint, vals []uint64) ([]uint64, error) {
	pairs := make([]Pair, len(fps))
	for i := range fps {
		pairs[i] = Pair{FP: fps[i], Val: Value(vals[i])}
	}
	_, _, err := d.db.PutBatch(context.Background(), pairs)
	return vals, err
}

func (d *dbTarget) Put(f fingerprint.Fingerprint, v uint64) (uint64, error) {
	_, err := d.db.Put(f, Value(v))
	return v, err
}

func (d *dbTarget) Delete(f fingerprint.Fingerprint) error {
	_, err := d.db.Delete(f)
	return err
}

func (d *dbTarget) Sync() error { return d.db.Sync() }

func (d *dbTarget) Compact() (err error) {
	d.compacted, err = d.db.Compact()
	return err
}

// dbSweep is one kill-at-every-write sweep.
type dbSweep struct {
	opts  Options
	seed  simtest.Schedule           // builds the template; settled in every run's model
	fill  func(t *testing.T, db *DB) // writes the template's unmodelled ballast
	sched simtest.Schedule           // the schedule the kill interrupts
	open  func(t *testing.T, path string) File
	guard func(t *testing.T, st Stats, cs CompactStats) // on the probe's table
	check func(t *testing.T, db *DB)                    // on every recovered table
	simtest.Sweep
}

// sweep builds the template and returns the sweep over it.
func (s dbSweep) sweep(t *testing.T) simtest.Sweep {
	dir := t.TempDir()
	path := filepath.Join(dir, "tmpl.shdb")
	db, err := Create(path, s.opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	base := simtest.NewModel()
	if err := s.seed.Run(&dbTarget{db: db}, base); err != nil {
		t.Fatalf("seeding the template: %v", err)
	}
	if s.fill != nil {
		s.fill(t, db)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("template Close: %v", err)
	}
	tmpl, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.open == nil {
		s.open = func(t *testing.T, path string) File {
			f, err := openRW(path)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	// fresh lays the template down at name and opens it over a file that
	// dies at the kill-th write.
	fresh := func(t *testing.T, name string, kill int64, tear int) (string, *simtest.FaultFile) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, tmpl, 0o644); err != nil {
			t.Fatal(err)
		}
		return path, simtest.NewFaultFile(s.open(t, path), PageSize, kill, tear)
	}
	s.Probe = func(t *testing.T) int64 {
		path, ff := fresh(t, "probe.shdb", math.MaxInt64, 0)
		db, err := OpenFile(ff, path)
		if err != nil {
			t.Fatalf("probe open: %v", err)
		}
		defer db.Close()
		tg := &dbTarget{db: db}
		if err := s.sched.Run(tg, simtest.NewModel()); err != nil {
			t.Fatalf("probe schedule: %v", err)
		}
		if s.guard != nil {
			s.guard(t, db.Stats(), tg.compacted)
		}
		return ff.Writes()
	}
	s.Kill = func(t *testing.T, kill int64, tear int) {
		path, ff := fresh(t, "run.shdb", kill, tear)
		db, err := OpenFile(ff, path)
		if err != nil {
			t.Fatalf("open on the clean template: %v", err)
		}
		m := base.Clone()
		err = s.sched.Run(&dbTarget{db: db}, m)
		if err == nil {
			// The kill point lies in Close's own writes or past them all;
			// either way the result answers to the same contract.
			err = db.Close()
		}
		switch {
		case err == nil:
		case errors.Is(err, simtest.ErrKilled):
			ff.Close() // the process died; release the fd
		default:
			t.Fatalf("schedule failed with a non-kill error: %v", err)
		}

		db2, err := OpenFile(s.open(t, path), path)
		if err != nil {
			t.Fatalf("open after the crash: %v", err)
		}
		defer db2.Close()
		if err := db2.Check(); err != nil {
			t.Fatalf("Check after recovery: %v", err)
		}
		rs := db2.Recovery()
		if tear == 0 && (rs.TornPages != 0 || rs.TailBytes != 0) {
			t.Fatalf("recovery reports torn state %+v after an atomic kill", rs)
		}
		get := func(f fingerprint.Fingerprint) (uint64, bool, error) {
			v, ok, err := db2.Get(f)
			return uint64(v), ok, err
		}
		if err := m.Check(get, simtest.Excuse{Torn: rs.TornPages > 0}); err != nil {
			t.Fatalf("%v (recovery %+v)", err, rs)
		}
		// A copy recovery left in a second page is invisible to Get, but
		// Range meets it, and a Delete would leave it behind.
		seen := map[fingerprint.Fingerprint]bool{}
		db2.Range(func(f fingerprint.Fingerprint, _ Value) bool {
			if seen[f] {
				t.Fatalf("%s is stored twice after recovery (recovery %+v)", f.Short(), rs)
			}
			seen[f] = true
			return true
		})
		if s.check != nil {
			s.check(t, db2)
		}
		db2.Close()
		db3, err := OpenFile(s.open(t, path), path)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer db3.Close()
		if rs := db3.Recovery(); rs.Runs != 0 {
			t.Fatalf("second open ran recovery again: %+v", rs)
		}
	}
	return s.Sweep
}

var (
	// seedTen is the template most sweeps start from: keys 0..9, generation 0.
	seedTen = simtest.Schedule{{Kind: simtest.Put, Keys: simtest.Span(0, 10)}}
	// everyTear kills atomically and tears the killing write at three sizes.
	everyTear = []int{0, 7, PageSize / 2, PageSize - 1}
	// crashOps grows a two-bucket table's chains: batched and per-key
	// creates, updates, deletes of seeded keys, a second batch, a barrier.
	crashOps = simtest.Schedule{
		{Kind: simtest.PutBatch, Keys: simtest.Span(10, 22), Gen: 1},
		{Kind: simtest.Put, Keys: simtest.Span(22, 28), Gen: 1},
		{Kind: simtest.Put, Keys: simtest.Span(0, 4), Gen: 2},
		{Kind: simtest.Delete, Keys: simtest.Span(5, 8)},
		{Kind: simtest.PutBatch, Keys: simtest.Span(30, 40), Gen: 1},
		{Kind: simtest.Put, Keys: simtest.Span(10, 13), Gen: 3},
		{Kind: simtest.Sync},
	}
)

func TestCrashInjectionEveryWritePoint(t *testing.T) {
	dbSweep{
		opts: Options{Buckets: 2}, seed: seedTen, sched: crashOps,
		Sweep: simtest.Sweep{Floor: 20, Tears: everyTear},
	}.sweep(t).Run(t)
}

// TestResizeCrashInjectionEveryWritePoint sweeps at unsplit fills low enough
// (6 to 9 entries a bucket) that the schedule's ~60 keys split the 2-bucket
// template seven times, through two levels, so kills land inside splits, a
// compaction's repack and free-list reuse.
func TestResizeCrashInjectionEveryWritePoint(t *testing.T) {
	sweepAt(t, 6, 9)
	dbSweep{
		opts: Options{Buckets: 2}, seed: seedTen,
		sched: simtest.Schedule{
			{Kind: simtest.PutBatch, Keys: simtest.Span(100, 130), Gen: 1}, // past the split threshold
			{Kind: simtest.Put, Keys: simtest.Span(130, 140), Gen: 1},
			{Kind: simtest.Put, Keys: simtest.Span(0, 4), Gen: 2}, // seeded keys the splits moved
			{Kind: simtest.Delete, Keys: simtest.Span(100, 115)},
			{Kind: simtest.Compact},
			{Kind: simtest.PutBatch, Keys: simtest.Span(140, 150), Gen: 1}, // drains the free list
			{Kind: simtest.Put, Keys: simtest.Span(115, 118), Gen: 3},
			{Kind: simtest.Delete, Keys: simtest.Span(118, 120)},
			{Kind: simtest.Sync},
		},
		guard: func(t *testing.T, st Stats, _ CompactStats) {
			if st.Splits < 7 || st.UnsplitFill > 9 {
				t.Fatalf("the schedule split %d times to an unsplit fill of %.1f, want 7 to at most 9 (stats %+v)",
					st.Splits, st.UnsplitFill, st)
			}
		},
		Sweep: simtest.Sweep{Floor: 50, Tears: everyTear},
	}.sweep(t).Run(t)
}

// minedKeys returns the first n keys (from 1000 up) whose hash prefix has
// the given parity — under the template's 2-bucket mapping they all land
// in one bucket, which is how the compaction schedule builds a long chain
// despite uniform hashing.
func minedKeys(n int, parity uint64) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(1000); len(keys) < n; k++ {
		if fp(k).Prefix64()%2 == parity {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCompactCrashInjectionEveryWritePoint sweeps at a fill no real load
// reaches, so growth comes only from the chain-length trigger: a mined
// wave makes a three-page chain, one more put splits it once, deletes leave
// both halves sparse, and Compact has real repacking and page-freeing to do.
func TestCompactCrashInjectionEveryWritePoint(t *testing.T) {
	sweepAt(t, 1e9, 1e9)
	mined := minedKeys(2*SlotsPerPage+25, 0)
	last := len(mined) - 1
	dbSweep{
		opts: Options{Buckets: 2}, seed: seedTen,
		sched: simtest.Schedule{
			{Kind: simtest.PutBatch, Keys: mined[:last], Gen: 1},
			{Kind: simtest.Put, Keys: mined[last:], Gen: 1}, // walks the chain: the trigger splits it
			{Kind: simtest.Delete, Keys: mined[:90]},        // sparse, but no page empties
			{Kind: simtest.Compact},
			{Kind: simtest.PutBatch, Keys: simtest.Span(140, 150), Gen: 1},
			{Kind: simtest.Sync},
		},
		guard: func(t *testing.T, st Stats, cs CompactStats) {
			if st.Splits == 0 {
				t.Fatalf("the schedule made no splits (stats %+v)", st)
			}
			if cs.PagesFreed == 0 || cs.ChainsPacked == 0 {
				t.Fatalf("Compact did no work (%+v); the sweep would not cover compaction", cs)
			}
		},
		Sweep: simtest.Sweep{Tears: everyTear},
	}.sweep(t).Run(t)
}

// TestCompactCrashMultiPageRepack kills a compaction that packs three sparse
// pages into two at each of its writes. The schedules above only ever pack a
// chain into one page; with two or more, the order of the page writes is
// what keeps every entry on some page at every instant: head-first, because
// entries only move toward the head (deepest-first lost the middle of the
// chain to a kill between the two writes).
func TestCompactCrashMultiPageRepack(t *testing.T) {
	pinShape(t)
	// A chain of 145 + 145 + 25; thirty deletes off the head page leave two
	// pages' worth.
	dbSweep{
		opts: Options{Buckets: 1},
		seed: simtest.Schedule{
			{Kind: simtest.Put, Keys: simtest.Span(0, 2*SlotsPerPage+25)},
			{Kind: simtest.Delete, Keys: simtest.Span(10, 40)},
		},
		sched: simtest.Schedule{{Kind: simtest.Compact}, {Kind: simtest.Sync}},
		guard: func(t *testing.T, _ Stats, cs CompactStats) {
			if cs.ChainsPacked != 1 || cs.PagesFreed != 1 {
				t.Fatalf("Compact packed %+v, want one chain into two pages and one page freed", cs)
			}
		},
		Sweep: simtest.Sweep{Tears: everyTear},
	}.sweep(t).Run(t)
}

// TestOverflowFromFreeListCrashInjection kills a PutBatch that grows a full
// chain onto a page of the free list at each of its writes. A freed page stays
// a valid empty page whose next field links the rest of the free list, so a
// head written before that page would, killed between the two, link recovery
// into the free list: it would adopt every page of it as an empty overflow
// page. Written overflow page first, a kill leaves the head unlinked, and no
// recovered chain holds an overflow page with no entries.
func TestOverflowFromFreeListCrashInjection(t *testing.T) {
	pinShape(t)
	dbSweep{
		opts: Options{Buckets: 1},
		// A chain of 145 + 145 + 20 whose two overflow pages empty, one by
		// one, onto the free list.
		seed: simtest.Schedule{
			{Kind: simtest.Put, Keys: simtest.Span(0, 2*SlotsPerPage+20)},
			{Kind: simtest.Delete, Keys: simtest.Span(SlotsPerPage, 2*SlotsPerPage+20)},
			{Kind: simtest.Sync},
		},
		sched: simtest.Schedule{
			{Kind: simtest.PutBatch, Keys: simtest.Span(1000, 1010), Gen: 1},
			{Kind: simtest.Sync},
		},
		guard: func(t *testing.T, st Stats, _ CompactStats) {
			if st.OverflowPages != 1 || st.FreePages != 1 {
				t.Fatalf("the batch grew %d overflow pages and left %d free, want 1 taken from a free list of 2", st.OverflowPages, st.FreePages)
			}
		},
		check: func(t *testing.T, db *DB) {
			if p := emptyOverflow(t, db); p != 0 && db.Recovery().TornPages == 0 {
				t.Fatalf("a chain holds overflow page %d with no entries (recovery %+v)", p, db.Recovery())
			}
		},
		Sweep: simtest.Sweep{Tears: everyTear},
	}.sweep(t).Run(t)
}

// emptyOverflow returns the first overflow page of db's chains that holds no
// entry, or 0.
func emptyOverflow(t *testing.T, db *DB) uint64 {
	page := make([]byte, PageSize)
	for b := uint64(0); b < db.numBuckets(); b++ {
		for p, head := db.bucketPageOf(b), true; p != 0; p, head = pageNext(page), false {
			if err := db.readPage(p, page); err != nil {
				t.Fatal(err)
			}
			if !head && pageCount(page) == 0 {
				return p
			}
		}
	}
	return 0
}

// growCrashFiller is the ballast that brings the template to where its first
// sweep starts: keys the schedule never touches, checked after every crash
// by one Range.
const growCrashFiller = 1 << 20

// TestGrowCrashInjectionEveryWritePoint is the path every node takes since
// tables start small: a default-created table filled to just under the fill
// its first sweep starts at and closed cleanly, then grown by PutBatch waves.
// Each wave splits ahead of itself and then walks its chains, so the kill
// points fall inside a split-ahead run, between it and the chain writes, and
// among the chain writes into buckets split a moment before.
func TestGrowCrashInjectionEveryWritePoint(t *testing.T) {
	// Fill to sixty entries under sweepFrom's, so the first wave crosses it.
	room := int(sweepFrom*startBuckets) - 10 - 60
	filler := make(map[fingerprint.Fingerprint]Value, room)
	dbSweep{
		seed: seedTen,
		fill: func(t *testing.T, db *DB) {
			pairs := make([]Pair, room)
			for i := range pairs {
				k := uint64(growCrashFiller + i)
				pairs[i] = Pair{FP: fp(k), Val: Value(k)}
				filler[pairs[i].FP] = pairs[i].Val
			}
			if _, _, err := db.PutBatch(t.Context(), pairs); err != nil {
				t.Fatalf("filler PutBatch: %v", err)
			}
			if st := db.Stats(); st.Splits != 0 || st.Buckets != startBuckets {
				t.Fatalf("template split while filling: %+v", st)
			}
		},
		sched: simtest.Schedule{
			{Kind: simtest.PutBatch, Keys: simtest.Span(100, 230), Gen: 1}, // the file's first splits
			{Kind: simtest.PutBatch, Keys: simtest.Span(300, 430), Gen: 1}, // no Sync between: both roll back
			{Kind: simtest.Put, Keys: simtest.Span(0, 4), Gen: 2},
			{Kind: simtest.Sync},
		},
		guard: func(t *testing.T, st Stats, _ CompactStats) {
			if st.Splits < 5 || st.UnsplitFill > sweepTo {
				t.Fatalf("the schedule split %d times to an unsplit fill of %.1f; the waves are not growing the table (stats %+v)",
					st.Splits, st.UnsplitFill, st)
			}
		},
		// Every filler entry survives any kill (a torn page may take its own
		// entries with it), and nothing comes out of Range twice.
		check: func(t *testing.T, db *DB) {
			seen := rangeOnce(t, db, "after recovery")
			missing := 0
			for f, want := range filler {
				if v, ok := seen[f]; !ok {
					missing++
				} else if v != want {
					t.Fatalf("untouched entry %s = %d, want %d", f.Short(), v, want)
				}
			}
			rs, st := db.Recovery(), db.Stats()
			if missing != 0 && rs.TornPages == 0 {
				t.Fatalf("%d untouched entries lost with no torn page (recovery %+v)", missing, rs)
			}
			if uint64(len(seen)) != st.Entries {
				t.Fatalf("Range saw %d entries, Stats says %d", len(seen), st.Entries)
			}
			if rs.Runs == 1 && (rs.SplitRollbacks > st.Splits+20 || rs.PagesScanned < startBuckets || rs.SalvagedEntries > uint64(len(seen))) {
				t.Fatalf("recovery stats out of proportion: %+v", rs)
			}
		},
		Sweep: simtest.Sweep{Tears: []int{0, PageSize / 2}, RaceStep: 4},
	}.sweep(t).Run(t)
}

// FuzzCrashSchedule composes crash × split × compact × delete: a schedule
// generated from seed runs over a two-bucket table that sweeps at low fills, and its file dies at write kill with tear bytes of that write
// landing. The seed corpus runs with the tests.
func FuzzCrashSchedule(f *testing.F) {
	f.Add(int64(1), uint16(40), uint16(0))
	f.Add(int64(2), uint16(95), uint16(7))
	f.Add(int64(3), uint16(160), uint16(PageSize/2))
	f.Add(int64(4), uint16(230), uint16(PageSize-1))
	f.Add(int64(5), uint16(17), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, kill, tear uint16) {
		sweepAt(t, 6, 9)
		sw := dbSweep{opts: Options{Buckets: 2}, seed: seedTen, sched: simtest.Generate(seed, 300, 30)}.sweep(t)
		sw.Kill(t, int64(kill)+1, int(tear)%PageSize)
	})
}

// orderFile logs what a table asks of its file, in order: "page" for a page
// write, "dirty" or "clean" for a header write, "sync" for an fsync.
type orderFile struct {
	File
	ops []string
}

func (f *orderFile) WriteAt(p []byte, off int64) (int, error) {
	op := "page"
	if off < PageSize && len(p) == fileHdrSize {
		op = "dirty"
		if p[40] == 1 { // writeHeader's clean byte
			op = "clean"
		}
	}
	f.ops = append(f.ops, op)
	return f.File.WriteAt(p, off)
}

func (f *orderFile) Sync() error {
	f.ops = append(f.ops, "sync")
	return f.File.Sync()
}

// TestCrashCleanMarkAfterDataSync holds Sync and Close to commitClean's
// order: every page written before a clean header is fsynced before that
// header is written, and the header is fsynced right after. With one fsync
// for both, the device may persist the clean mark ahead of a page, and a
// crash leaves a torn page that Open, trusting the mark, never recovers.
func TestCrashCleanMarkAfterDataSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "order.shdb")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec := &orderFile{File: f}
	db, err := CreateFile(rec, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.ops = nil // Create's header covers no page yet
	put := func(from, to uint64) {
		for i := from; i < to; i++ {
			if _, err := db.Put(fingerprint.FromUint64(i), Value(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 500)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	put(500, 1000)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cleans, synced := 0, true
	for i, op := range rec.ops {
		switch op {
		case "page", "dirty":
			synced = false
		case "sync":
			synced = true
		case "clean":
			cleans++
			if !synced {
				t.Errorf("op %d: clean header written before the writes ahead of it were synced", i)
			}
			if i+1 == len(rec.ops) || rec.ops[i+1] != "sync" {
				t.Errorf("op %d: clean header not synced before the next write", i)
			}
		}
	}
	if cleans < 2 {
		t.Fatalf("%d clean header writes, want one from Sync and one from Close", cleans)
	}
}

// TestCrashCreateSyncsHeader: CreateFile fsyncs the clean header it writes
// before it returns. Unsynced, a table created just before a power cut has
// no header to open by.
func TestCrashCreateSyncsHeader(t *testing.T) {
	rec := &orderFile{File: &MemFile{}}
	db, err := CreateFile(rec, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := fmt.Sprint(rec.ops); got != "[clean sync]" {
		t.Fatalf("CreateFile asked its file for %s, want [clean sync]", got)
	}
}
