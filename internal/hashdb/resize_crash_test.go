package hashdb

// The kill-at-every-write harness from crash_test.go, pointed at the
// growth machinery: the schedule here drives the table through linear-
// hashing splits, a compaction pass, and free-list reuse, so every kill
// point lands inside a split's multi-page write sequence, a compaction
// repack, or a free-list manipulation. The assertions are the same three
// crash_test.go proves — recovery always converges, no corrupt value is
// ever served, and acknowledged state survives (with the torn-page
// carve-out; atomic kills may lose nothing) — plus the delete guarantee:
// a split rollback or compaction replay must never resurrect an
// acknowledged delete.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shhc/internal/fingerprint"
)

// openCrashFile opens a crash-run file the way a node does.
func openCrashFile(f File, path string) (*DB, error) { return OpenFile(f, path, nil) }

// resizeCrashSchedule drives creates, updates, deletes, a Compact, and a
// refill that reuses compaction's freed pages, updating the model as
// operations settle. Splits fire throughout (the probe run asserts so).
func resizeCrashSchedule(db *DB, m *crashModel) error {
	ctx := context.Background()
	putBatch := func(keys []uint64, gen uint64) error {
		pairs := make([]Pair, len(keys))
		for i, k := range keys {
			pairs[i] = Pair{FP: fp(k), Val: Value(k*1000 + gen)}
			m.attemptPut(k, pairs[i].Val)
		}
		if _, _, err := db.PutBatch(ctx, pairs); err != nil {
			return err
		}
		for i, k := range keys {
			m.ackPut(k, pairs[i].Val)
		}
		return nil
	}
	put := func(k, gen uint64) error {
		v := Value(k*1000 + gen)
		m.attemptPut(k, v)
		if _, err := db.Put(fp(k), v); err != nil {
			return err
		}
		m.ackPut(k, v)
		return nil
	}
	del := func(k uint64) error {
		m.attemptDel(k)
		if _, err := db.Delete(fp(k)); err != nil {
			return err
		}
		m.ackDel(k)
		return nil
	}

	// 1: a batched create wave large enough to push load past the split
	// threshold.
	batchA := make([]uint64, 30)
	for i := range batchA {
		batchA[i] = 100 + uint64(i)
	}
	if err := putBatch(batchA, 1); err != nil {
		return err
	}
	// 2: per-key creates, splitting further one put at a time.
	for k := uint64(130); k < 140; k++ {
		if err := put(k, 1); err != nil {
			return err
		}
	}
	// 3: updates of seeded entries that splits have since redistributed.
	for k := uint64(0); k < 4; k++ {
		if err := put(k, 2); err != nil {
			return err
		}
	}
	// 4: deletes (never touched again) sparsifying the split chains.
	for k := uint64(100); k < 115; k++ {
		if err := del(k); err != nil {
			return err
		}
	}
	// 5: compaction repacks the sparse chains and frees pages; kills land
	// inside its repack writes and free-list pushes.
	if _, err := db.Compact(); err != nil {
		return err
	}
	// 6: a refill that drains compaction's free list.
	batchB := make([]uint64, 10)
	for i := range batchB {
		batchB[i] = 140 + uint64(i)
	}
	if err := putBatch(batchB, 1); err != nil {
		return err
	}
	// 7: updates and deletes on top of the reused pages.
	for k := uint64(115); k < 118; k++ {
		if err := put(k, 3); err != nil {
			return err
		}
	}
	for k := uint64(118); k < 120; k++ {
		if err := del(k); err != nil {
			return err
		}
	}
	// 8: an explicit durability barrier.
	return db.Sync()
}

// seedResizeCrashTemplate builds the pre-crash image: a 2-bucket table
// holding keys 0..9, closed cleanly.
func seedResizeCrashTemplate(t *testing.T, path string, m *crashModel) {
	t.Helper()
	db, err := Create(path, Options{Buckets: 2})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for k := uint64(0); k < 10; k++ {
		v := Value(k * 1000)
		m.attemptPut(k, v)
		if _, err := db.Put(fp(k), v); err != nil {
			t.Fatalf("seed Put: %v", err)
		}
		m.ackPut(k, v)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("seed Close: %v", err)
	}
}

// TestResizeCrashInjectionEveryWritePoint splits at a load factor low enough
// that the schedule's ~60 keys split the 2-bucket template several times.
func TestResizeCrashInjectionEveryWritePoint(t *testing.T) {
	splitAt(t, 0.05)
	dir := t.TempDir()
	tmpl := filepath.Join(dir, "tmpl.shdb")
	seedResizeCrashTemplate(t, tmpl, newCrashModel())
	tmplBytes, err := os.ReadFile(tmpl)
	if err != nil {
		t.Fatal(err)
	}

	// Probe the schedule's write count — and that it actually grows the
	// table.
	totalWrites, st := probeSchedule(t, tmplBytes, dir, openCrashFile, resizeCrashSchedule)
	if st.Splits == 0 {
		t.Fatalf("probe schedule made no splits; the harness is not exercising growth (stats %+v)", st)
	}
	if totalWrites < 50 {
		t.Fatalf("schedule issued only %d writes; too small to cover split/compact sequences", totalWrites)
	}

	for _, partial := range []int{-1, 7, PageSize / 2, PageSize - 1} {
		for k := int64(1); k <= totalWrites; k++ {
			runGrowthCrashPoint(t, tmplBytes, dir, k, partial, openCrashFile, resizeCrashSchedule, nil)
		}
	}
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

// compactCrashSchedule builds a three-page chain in one bucket, lets the
// chain trigger split it once, deletes enough entries to leave both halves
// sparse, and compacts — so kill points land inside a compaction that has
// real repacking and page-freeing to do. cs receives Compact's stats for
// the probe run to assert the work happened.
func compactCrashSchedule(db *DB, m *crashModel, cs *CompactStats) error {
	ctx := context.Background()
	putBatch := func(keys []uint64, gen uint64) error {
		pairs := make([]Pair, len(keys))
		for i, k := range keys {
			pairs[i] = Pair{FP: fp(k), Val: Value(k*1000 + gen)}
			m.attemptPut(k, pairs[i].Val)
		}
		if _, _, err := db.PutBatch(ctx, pairs); err != nil {
			return err
		}
		for i, k := range keys {
			m.ackPut(k, pairs[i].Val)
		}
		return nil
	}

	// 1: a mined wave overflows one bucket into a three-page chain.
	mined := minedKeys(2*SlotsPerPage+25, 0)
	if err := putBatch(mined[:len(mined)-1], 1); err != nil {
		return err
	}
	// 2: one more put walks the long chain, arming the chain-length
	// trigger; its maybeSplit splits the overloaded bucket in two.
	last := mined[len(mined)-1]
	m.attemptPut(last, Value(last*1000+1))
	if _, err := db.Put(fp(last), Value(last*1000+1)); err != nil {
		return err
	}
	m.ackPut(last, Value(last*1000+1))
	// 3: deletes sparsify both halves of the split chain without emptying
	// any page (Delete back-fills within a page).
	for _, k := range mined[:90] {
		m.attemptDel(k)
		if _, err := db.Delete(fp(k)); err != nil {
			return err
		}
		m.ackDel(k)
	}
	// 4: compaction repacks the sparse chains and frees their tails.
	c, err := db.Compact()
	if err != nil {
		return err
	}
	*cs = c
	// 5: a refill writing over the reshaped table, then a barrier.
	refill := make([]uint64, 10)
	for i := range refill {
		refill[i] = 140 + uint64(i)
	}
	if err := putBatch(refill, 1); err != nil {
		return err
	}
	return db.Sync()
}

// TestCompactCrashInjectionEveryWritePoint splits at a load factor no real
// load reaches, so growth comes only from the chain-length trigger — exactly
// one split fires, and the sparse chains survive for Compact to repack.
func TestCompactCrashInjectionEveryWritePoint(t *testing.T) {
	splitAt(t, 2.0)
	dir := t.TempDir()
	tmpl := filepath.Join(dir, "tmpl.shdb")
	seedResizeCrashTemplate(t, tmpl, newCrashModel())
	tmplBytes, err := os.ReadFile(tmpl)
	if err != nil {
		t.Fatal(err)
	}

	// Probe: the schedule must actually split once and give Compact real
	// work, or the kill sweep proves nothing about those code paths.
	var cs CompactStats
	totalWrites, st := probeSchedule(t, tmplBytes, dir, openCrashFile, func(db *DB, m *crashModel) error {
		return compactCrashSchedule(db, m, &cs)
	})
	if st.Splits == 0 {
		t.Fatalf("probe schedule made no splits (stats %+v)", st)
	}
	if cs.PagesFreed == 0 || cs.ChainsPacked == 0 {
		t.Fatalf("probe Compact did no work (%+v); the kill sweep would not cover compaction", cs)
	}

	schedule := func(db *DB, m *crashModel) error {
		var cs CompactStats
		return compactCrashSchedule(db, m, &cs)
	}
	for _, partial := range []int{-1, 7, PageSize / 2, PageSize - 1} {
		for k := int64(1); k <= totalWrites; k++ {
			runGrowthCrashPoint(t, tmplBytes, dir, k, partial, openCrashFile, schedule, nil)
		}
	}
}

// TestCompactCrashMultiPageRepack kills a compaction that packs three sparse
// pages into two at each of its writes. The schedules above only ever pack a
// chain into one page; with two or more, the order of the page writes is
// what keeps every entry on some page at every instant: head-first, because
// entries only move toward the head (deepest-first lost the middle of the
// chain to a kill between the two writes).
func TestCompactCrashMultiPageRepack(t *testing.T) {
	pinShape(t)
	dir := t.TempDir()
	tmpl := filepath.Join(dir, "tmpl.shdb")
	db, err := Create(tmpl, Options{Buckets: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Keys 0..9 as seedModel has them, then enough for a chain of 145 + 145
	// + 25; thirty deletes off the head page leave two pages' worth.
	const last = 2*SlotsPerPage + 25
	for k := uint64(0); k < last; k++ {
		if _, err := db.Put(fp(k), Value(k*1000)); err != nil {
			t.Fatalf("seed Put: %v", err)
		}
	}
	for k := uint64(10); k < 40; k++ {
		if ok, err := db.Delete(fp(k)); err != nil || !ok {
			t.Fatalf("seed Delete(%d) = (%v, %v)", k, ok, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("seed Close: %v", err)
	}
	tmplBytes, err := os.ReadFile(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	var packed CompactStats
	schedule := func(db *DB, m *crashModel) error {
		for k := uint64(10); k < last; k++ { // the template's state, settled before the schedule
			m.attemptPut(k, Value(k*1000))
			m.ackPut(k, Value(k*1000))
			if k < 40 {
				m.ackDel(k)
			}
		}
		cs, err := db.Compact()
		if err != nil {
			return err
		}
		packed = cs
		return db.Sync()
	}
	totalWrites, _ := probeSchedule(t, tmplBytes, dir, openCrashFile, schedule)
	if packed.ChainsPacked != 1 || packed.PagesFreed != 1 {
		t.Fatalf("the schedule's Compact packed %+v, want one chain into two pages and one page freed", packed)
	}
	for _, partial := range []int{-1, 7, PageSize / 2, PageSize - 1} {
		for k := int64(1); k <= totalWrites; k++ {
			runGrowthCrashPoint(t, tmplBytes, dir, k, partial, openCrashFile, schedule, nil)
		}
	}
}

// The path every node takes since tables start small: a default-created
// table — no Buckets, no hook, nothing a test shaped — filled to
// just under its trigger and closed cleanly, then grown by PutBatch waves.
// Each wave splits ahead of itself and then walks its chains, so the kill
// points fall inside a split-ahead run, between it and the chain writes, and
// among the chain writes into buckets split a moment before.

// growCrashFiller is the ballast that brings the template to its trigger:
// keys the schedule never touches, checked after every crash by one Range.
const growCrashFiller = 1 << 20

func growCrashSchedule(db *DB, m *crashModel) error {
	ctx := context.Background()
	wave := func(from, n uint64) error {
		pairs := make([]Pair, n)
		for i := range pairs {
			k := from + uint64(i)
			pairs[i] = Pair{FP: fp(k), Val: Value(k*1000 + 1)}
			m.attemptPut(k, pairs[i].Val)
		}
		if _, _, err := db.PutBatch(ctx, pairs); err != nil {
			return err
		}
		for i := range pairs {
			m.ackPut(from+uint64(i), pairs[i].Val)
		}
		return nil
	}
	// 1: the wave that takes the table over its trigger: the first splits
	// of the file's life, then the chain writes.
	if err := wave(100, 130); err != nil {
		return err
	}
	// 2: a second wave, splitting on from where the first stopped, with no
	// Sync between: a kill here rolls both waves' splits back.
	if err := wave(300, 130); err != nil {
		return err
	}
	// 3: updates of seeded entries the splits may have moved.
	for k := uint64(0); k < 4; k++ {
		v := Value(k*1000 + 2)
		m.attemptPut(k, v)
		if _, err := db.Put(fp(k), v); err != nil {
			return err
		}
		m.ackPut(k, v)
	}
	return db.Sync()
}

func TestGrowCrashInjectionEveryWritePoint(t *testing.T) {
	dir := t.TempDir()
	tmpl := filepath.Join(dir, "tmpl.shdb")
	db, err := Create(tmpl, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for k := uint64(0); k < 10; k++ { // the keys seedModel knows
		if _, err := db.Put(fp(k), Value(k*1000)); err != nil {
			t.Fatalf("seed Put: %v", err)
		}
	}
	// Fill to sixty entries under the trigger, so the first wave crosses it.
	room := int(splitLoadFactor*startBuckets*SlotsPerPage) - 10 - 60
	filler := make(map[fingerprint.Fingerprint]Value, room)
	pairs := make([]Pair, room)
	for i := range pairs {
		k := uint64(growCrashFiller + i)
		pairs[i] = Pair{FP: fp(k), Val: Value(k)}
		filler[pairs[i].FP] = pairs[i].Val
	}
	if _, _, err := db.PutBatch(t.Context(), pairs); err != nil {
		t.Fatalf("seed PutBatch: %v", err)
	}
	if st := db.Stats(); st.Splits != 0 || st.Buckets != startBuckets {
		t.Fatalf("template split while seeding: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("seed Close: %v", err)
	}
	tmplBytes, err := os.ReadFile(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	totalWrites, st := probeSchedule(t, tmplBytes, dir, openCrashFile, growCrashSchedule)
	if st.Splits < 4 {
		t.Fatalf("probe schedule split %d times; the waves are not growing the table (stats %+v)", st.Splits, st)
	}

	// Every entry the schedule did not touch survives any kill (a torn page
	// may take its own entries with it, as everywhere in this harness), and
	// nothing — filler, seed or wave entry — comes out of Range twice.
	check := func(db *DB, where string) {
		seen := rangeOnce(t, db, where)
		missing := 0
		for f, want := range filler {
			if v, ok := seen[f]; !ok {
				missing++
			} else if v != want {
				t.Fatalf("%s: untouched entry %s = %d, want %d", where, f.Short(), v, want)
			}
		}
		rs, st := db.Recovery(), db.Stats()
		if missing != 0 && rs.TornPages == 0 {
			t.Fatalf("%s: %d untouched entries lost with no torn page (recovery %+v)", where, missing, rs)
		}
		if uint64(len(seen)) != st.Entries {
			t.Fatalf("%s: Range saw %d entries, Stats says %d", where, len(seen), st.Entries)
		}
		if rs.Runs == 1 && (rs.SplitRollbacks > st.Splits+20 || rs.PagesScanned < startBuckets || rs.SalvagedEntries > uint64(len(seen))) {
			t.Fatalf("%s: recovery stats out of proportion: %+v", where, rs)
		}
	}
	// One goroutine: the race detector has nothing to find here and makes
	// each of the runs ten times dearer, so under it every fourth write dies.
	step := int64(1)
	if raceEnabled {
		step = 4
	}
	for _, partial := range []int{-1, PageSize / 2} {
		for k := int64(1); k <= totalWrites; k += step {
			runGrowthCrashPoint(t, tmplBytes, dir, k, partial, openCrashFile, growCrashSchedule, check)
		}
	}
}

// TestGrowUnsyncedCrashReopens is the cost of committing (level, split) only
// at clean commits, now that growth is every table's normal state: a table
// grown from its base to two thousand buckets and killed reopens with every
// split since its last Sync undone and grows again on its next write. With a
// Sync on the way the header knows the directory, and recovery rolls the
// later splits back one by one; with none since Create the header is still
// Create's and names no directory, so every split bucket's pages are orphans
// and are salvaged as such. Either way nothing acked is lost, nothing doubles,
// and the log line says how long the reopen took.
func TestGrowUnsyncedCrashReopens(t *testing.T) {
	target := uint64(2000)
	if raceEnabled {
		target = 700 // one goroutine; a third of the inserts under the detector
	}
	for _, syncAt := range []uint64{0, 400} {
		t.Run(fmt.Sprintf("sync-at-%d-buckets", syncAt), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "unsynced.shdb")
			db, err := Create(path, Options{})
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			const batch = 2048
			var n uint64
			pairs := make([]Pair, batch)
			wave := func() {
				for i := range pairs {
					pairs[i] = Pair{FP: fp(n + uint64(i)), Val: Value(n + uint64(i))}
				}
				if _, _, err := db.PutBatch(t.Context(), pairs); err != nil {
					t.Fatalf("PutBatch at %d: %v", n, err)
				}
				n += batch
			}
			committed := uint64(startBuckets)
			for db.Stats().Buckets < target {
				wave()
				if b := db.Stats().Buckets; syncAt != 0 && committed == startBuckets && b >= syncAt {
					if err := db.Sync(); err != nil {
						t.Fatalf("Sync: %v", err)
					}
					committed = b
				}
			}
			grown := db.Stats()
			if err := db.CloseWithoutSync(); err != nil {
				t.Fatalf("CloseWithoutSync: %v", err)
			}

			start := time.Now()
			db, err = Open(path, nil)
			if err != nil {
				t.Fatalf("Open after the kill: %v", err)
			}
			defer db.Close()
			reopen := time.Since(start)
			rs, st := db.Recovery(), db.Stats()
			t.Logf("%d entries in %d buckets, %d committed: reopen %v (%d splits rolled back, %d orphan pages, %d entries salvaged, %d pages scanned); back at %d buckets, load factor %.2f",
				grown.Entries, grown.Buckets, committed, reopen.Round(time.Millisecond), rs.SplitRollbacks, rs.OrphanPages, rs.SalvagedEntries, rs.PagesScanned, st.Buckets, st.LoadFactor)
			if rs.Runs != 1 || rs.TornPages != 0 || rs.TailBytes != 0 || rs.DroppedEntries != 0 || rs.RepairedLinks != 0 {
				t.Fatalf("recovery after a whole-write kill: %+v", rs)
			}
			if st.Buckets != committed {
				t.Fatalf("reopened at %d buckets, the last Sync committed %d", st.Buckets, committed)
			}
			undone := grown.Buckets - committed
			if syncAt != 0 && rs.SplitRollbacks != undone {
				t.Fatalf("rolled back %d splits, want %d", rs.SplitRollbacks, undone)
			}
			if syncAt == 0 && (rs.SplitRollbacks != 0 || rs.OrphanPages < undone/2) {
				t.Fatalf("Create's header names no directory: want no rollbacks and the split buckets salvaged as orphans, got %+v", rs)
			}
			if rs.SalvagedEntries == 0 || rs.SalvagedEntries >= n || st.Entries != n {
				t.Fatalf("salvaged %d of %d entries, table holds %d", rs.SalvagedEntries, n, st.Entries)
			}
			verify := func(when string) {
				t.Helper()
				seen := rangeOnce(t, db, when)
				if uint64(len(seen)) != n {
					t.Fatalf("%s: Range saw %d entries, %d were acked", when, len(seen), n)
				}
				for k := uint64(0); k < n; k++ {
					if v, ok := seen[fp(k)]; !ok || v != Value(k) {
						t.Fatalf("%s: acked key %d = (%d, %v)", when, k, v, ok)
					}
				}
				if err := db.Check(); err != nil {
					t.Fatalf("%s: Check: %v", when, err)
				}
			}
			verify("after recovery")
			// The next write grows the table back to the size of its content.
			wave()
			if st := db.Stats(); st.LoadFactor > splitLoadFactor || st.Buckets < grown.Buckets {
				t.Fatalf("after the next wave: %d buckets at load factor %.2f, want at least %d under %.2f",
					st.Buckets, st.LoadFactor, grown.Buckets, splitLoadFactor)
			}
			verify("after regrowth")
		})
	}
}

// probeSchedule runs schedule to its end on a copy of the template, over a
// file that never dies, and returns how many writes it issued — the kill
// points worth visiting — and the table's shape before it was closed.
func probeSchedule(t *testing.T, tmplBytes []byte, dir string,
	open func(File, string) (*DB, error), schedule func(*DB, *crashModel) error) (int64, Stats) {
	t.Helper()
	path := filepath.Join(dir, "probe.shdb")
	if err := os.WriteFile(path, tmplBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	probe := NewFailFile(f, math.MaxInt64, 0)
	db, err := open(probe, path)
	if err != nil {
		t.Fatalf("probe open: %v", err)
	}
	defer db.Close()
	if err := schedule(db, newCrashModel()); err != nil {
		t.Fatalf("probe schedule: %v", err)
	}
	return probe.Writes(), db.Stats()
}

// runGrowthCrashPoint is runCrashPoint with a pluggable open and schedule;
// the post-crash assertions are identical. extra, if not nil, adds a
// schedule's own checks on the recovered table.
func runGrowthCrashPoint(t *testing.T, tmplBytes []byte, dir string, killAt int64, partial int,
	open func(File, string) (*DB, error), schedule func(*DB, *crashModel) error, extra func(db *DB, where string)) {
	t.Helper()
	path := filepath.Join(dir, "run.shdb")
	if err := os.WriteFile(path, tmplBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	m := newCrashModel()
	seedModel(m)

	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	p := partial
	if p < 0 {
		p = 0
	}
	ff := NewFailFile(f, killAt, p)
	db, err := open(ff, path)
	if err != nil {
		t.Fatalf("kill=%d partial=%d: open on clean seed: %v", killAt, partial, err)
	}
	serr := schedule(db, m)
	if serr == nil {
		if err := db.Close(); err != nil {
			t.Fatalf("kill=%d partial=%d: clean Close: %v", killAt, partial, err)
		}
	} else if !errors.Is(serr, ErrKilled) {
		t.Fatalf("kill=%d partial=%d: schedule failed with non-kill error: %v", killAt, partial, serr)
	} else {
		f.Close()
	}

	// Reopen: recovery must converge whatever split or compaction the kill
	// interrupted — rolled-back splits re-hash their chains, duplicate
	// copies left mid-repack dedupe, the free list rebuilds.
	db2, err := Open(path, nil)
	if err != nil {
		t.Fatalf("kill=%d partial=%d: Open after crash: %v", killAt, partial, err)
	}
	defer db2.Close()
	if err := db2.Check(); err != nil {
		t.Fatalf("kill=%d partial=%d: Check after recovery: %v", killAt, partial, err)
	}
	rs := db2.Recovery()
	if partial < 0 && (rs.TornPages != 0 || rs.TailBytes != 0) {
		t.Fatalf("kill=%d atomic: recovery reports torn state %+v from whole-write kills", killAt, rs)
	}

	for k, vals := range m.attempted {
		v, ok, gerr := db2.Get(fp(k))
		if gerr != nil {
			t.Fatalf("kill=%d partial=%d: Get(%d) after recovery: %v", killAt, partial, k, gerr)
		}
		if ok && !vals[v] {
			t.Fatalf("kill=%d partial=%d: Get(%d) = %d, a value never written for it (corrupt data served)", killAt, partial, k, v)
		}
		if !m.clean[k] {
			continue
		}
		if m.settledDel[k] {
			if ok {
				t.Fatalf("kill=%d partial=%d: key %d resurrected after acknowledged delete", killAt, partial, k)
			}
			continue
		}
		want := m.settledVal[k]
		if ok && v != want {
			t.Fatalf("kill=%d partial=%d: settled key %d = %d, want %d", killAt, partial, k, v, want)
		}
		if !ok {
			if partial < 0 {
				t.Fatalf("kill=%d atomic: settled key %d lost with no torn page", killAt, k)
			}
			if rs.TornPages == 0 {
				t.Fatalf("kill=%d partial=%d: settled key %d lost but recovery reports no torn pages", killAt, partial, k)
			}
		}
	}

	if extra != nil {
		extra(db2, fmt.Sprintf("kill=%d partial=%d", killAt, partial))
	}

	// A second reopen must be clean: recovery converged and committed.
	db2.Close()
	db3, err := Open(path, nil)
	if err != nil {
		t.Fatalf("kill=%d partial=%d: second Open: %v", killAt, partial, err)
	}
	if rs := db3.Recovery(); rs.Runs != 0 {
		t.Fatalf("kill=%d partial=%d: second open ran recovery again: %+v", killAt, partial, rs)
	}
	db3.Close()
}
