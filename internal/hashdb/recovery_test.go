package hashdb

import (
	"context"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"

	"shhc/internal/fingerprint"
)

// crashDB creates a database at path with one bucket, pinned (so every
// entry is on the single bucket chain and overflow pages exist), fills it
// with n entries, and abandons it dirty — the header says unclean, so the
// next Open runs recovery.
func crashDB(t *testing.T, path string, n uint64) {
	t.Helper()
	pinShape(t)
	db, err := create(path, Options{Buckets: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := uint64(0); i < n; i++ {
		if _, err := db.Put(fp(i), Value(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if err := db.CloseWithoutSync(); err != nil {
		t.Fatalf("CloseWithoutSync: %v", err)
	}
}

// countSurvivors asserts every surviving entry has its exact value and
// returns how many of the n seeded entries are present.
func countSurvivors(t *testing.T, db *DB, n uint64) int {
	t.Helper()
	found := 0
	for i := uint64(0); i < n; i++ {
		v, ok, err := db.Get(fp(i))
		if err != nil {
			t.Fatalf("Get(%d) after recovery: %v", i, err)
		}
		if !ok {
			continue
		}
		if v != Value(i) {
			t.Fatalf("Get(%d) = %d after recovery, want %d (corrupt data served)", i, v, i)
		}
		found++
	}
	return found
}

func TestRecoveryQuarantinesTornPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.shdb")
	const n = 3 * SlotsPerPage // bucket page + two overflow pages, all full
	crashDB(t, path, n)

	// Tear the first overflow page (page 2): smash bytes mid-page so its
	// CRC fails. The tail overflow page (page 3) becomes unreachable and
	// must be salvaged.
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("torn write torn write"), 2*PageSize+200); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db, err := Open(path)
	if err != nil {
		t.Fatalf("Open after torn page = %v, want recovery to repair", err)
	}
	defer db.Close()

	rs := db.Recovery()
	if rs.Runs != 1 || rs.TornPages != 1 {
		t.Fatalf("Recovery() = %+v, want Runs=1 TornPages=1", rs)
	}
	if rs.OrphanPages != 1 || rs.SalvagedEntries != SlotsPerPage {
		t.Fatalf("Recovery() = %+v, want the severed tail page salvaged (OrphanPages=1, SalvagedEntries=%d)", rs, SlotsPerPage)
	}
	found := countSurvivors(t, db, n)
	if lost := int(n) - found; lost != SlotsPerPage {
		t.Fatalf("lost %d entries, want exactly the torn page's %d", lost, SlotsPerPage)
	}
	if db.Len() != found {
		t.Fatalf("Len = %d, want %d", db.Len(), found)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check after recovery: %v", err)
	}

	// A second open is clean: recovery converged and committed.
	db.Close()
	db2, err := Open(path)
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	defer db2.Close()
	if rs := db2.Recovery(); rs.Runs != 0 {
		t.Fatalf("second open ran recovery again: %+v", rs)
	}
}

func TestRecoveryCutsDanglingLink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dangle.shdb")
	const n = 2*SlotsPerPage + 10 // bucket + full overflow + partial overflow
	crashDB(t, path, n)

	// Rewrite the bucket page's next pointer to a page beyond the file,
	// with a valid CRC — the shape a lost file tail leaves behind. Both
	// overflow pages become unreachable and must be salvaged.
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	if _, err := f.ReadAt(page, PageSize); err != nil {
		t.Fatal(err)
	}
	setPageNext(page, 9999)
	binary.BigEndian.PutUint32(page[0:pageCRCSize], pageSum(page))
	if _, err := f.WriteAt(page, PageSize); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db, err := Open(path)
	if err != nil {
		t.Fatalf("Open after dangling link = %v, want recovery to repair", err)
	}
	defer db.Close()

	rs := db.Recovery()
	if rs.RepairedLinks != 1 {
		t.Fatalf("Recovery() = %+v, want RepairedLinks=1", rs)
	}
	if rs.OrphanPages != 2 || rs.SalvagedEntries != n-SlotsPerPage {
		t.Fatalf("Recovery() = %+v, want both severed overflow pages salvaged", rs)
	}
	if found := countSurvivors(t, db, n); found != n {
		t.Fatalf("found %d entries, want all %d (salvage recovers severed tails)", found, n)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check after recovery: %v", err)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.shdb")
	crashDB(t, path, 50)

	// Append half a page of garbage: a page write torn mid-append.
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, PageSize/2)
	for i := range garbage {
		garbage[i] = byte(i)
	}
	if _, err := f.WriteAt(garbage, fi.Size()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db, err := Open(path)
	if err != nil {
		t.Fatalf("Open after torn tail = %v, want recovery to truncate it", err)
	}
	defer db.Close()
	if rs := db.Recovery(); rs.TailBytes != PageSize/2 {
		t.Fatalf("Recovery() = %+v, want TailBytes=%d", rs, PageSize/2)
	}
	if found := countSurvivors(t, db, 50); found != 50 {
		t.Fatalf("found %d entries, want all 50", found)
	}
}

func TestHeaderSurvivesOneTornSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hdr.shdb")
	db, err := create(path, Options{Buckets: 4})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := uint64(0); i < 100; i++ {
		db.Put(fp(i), Value(i))
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear each header slot in turn: with one slot destroyed the other
	// still describes a usable database.
	for _, off := range []int64{0, headerSlotStride} {
		f, err := openRW(path)
		if err != nil {
			t.Fatal(err)
		}
		saved := make([]byte, fileHdrSize)
		if _, err := f.ReadAt(saved, off); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, fileHdrSize), off); err != nil {
			t.Fatal(err)
		}
		f.Close()

		db2, err := Open(path)
		if err != nil {
			t.Fatalf("Open with slot at %d torn: %v", off, err)
		}
		for i := uint64(0); i < 100; i++ {
			if v, ok, err := db2.Get(fp(i)); err != nil || !ok || v != Value(i) {
				t.Fatalf("slot %d torn: Get(%d) = (%v, %v, %v)", off, i, v, ok, err)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		// Restore the slot for the next iteration.
		f, err = openRW(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(saved, off); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	// Both slots destroyed: nothing to recover from.
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, headerSlotStride} {
		if _, err := f.WriteAt(make([]byte, fileHdrSize), off); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	_, err = Open(path)
	var corrupt *CorruptionError
	if !errors.As(err, &corrupt) {
		t.Fatalf("Open with both header slots torn = %v, want CorruptionError", err)
	}
}

// TestReopenMatrix pins that every mutation kind survives a clean
// Close/Open cycle, twice over: PutBatch creates, Put updates, Delete
// removes.
func TestReopenMatrix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.shdb")
	db, err := create(path, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	const n = 400
	want := make(map[uint64]Value, n)

	pairs := make([]Pair, n)
	for i := uint64(0); i < n; i++ {
		pairs[i] = Pair{FP: fp(i), Val: Value(i)}
		want[i] = Value(i)
	}
	if _, _, err := db.PutBatch(context.Background(), pairs); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}

	for cycle := 0; cycle < 2; cycle++ {
		// Update a band, delete a band, insert a fresh band.
		base := uint64(cycle * 1000)
		for i := uint64(0); i < 50; i++ {
			v := Value(7000 + base + i)
			if _, err := db.Put(fp(i), v); err != nil {
				t.Fatalf("Put update: %v", err)
			}
			want[i] = v
		}
		for i := uint64(100); i < 120; i++ {
			if _, err := db.Delete(fp(i)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			delete(want, i)
		}
		fresh := make([]Pair, 30)
		for i := range fresh {
			k := n + base + uint64(i)
			fresh[i] = Pair{FP: fp(k), Val: Value(k)}
			want[k] = Value(k)
		}
		if _, _, err := db.PutBatch(context.Background(), fresh); err != nil {
			t.Fatalf("PutBatch fresh: %v", err)
		}

		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		db, err = Open(path)
		if err != nil {
			t.Fatalf("Open cycle %d: %v", cycle, err)
		}
		if rs := db.Recovery(); rs.Runs != 0 {
			t.Fatalf("clean reopen ran recovery: %+v", rs)
		}
		if db.Len() != len(want) {
			t.Fatalf("cycle %d: Len = %d, want %d", cycle, db.Len(), len(want))
		}
		for k, v := range want {
			got, ok, err := db.Get(fp(k))
			if err != nil || !ok || got != v {
				t.Fatalf("cycle %d: Get(%d) = (%v, %v, %v), want %d", cycle, k, got, ok, err, v)
			}
		}
		for i := uint64(100); i < 120; i++ {
			if _, ok, _ := db.Get(fp(i)); ok {
				t.Fatalf("cycle %d: deleted entry %d resurrected by reopen", cycle, i)
			}
		}
	}
	db.Close()
}

// TestChecksumDetectsCorruptionBatch pins the CRC contract recovery
// builds on, for the batched read path: a byte flip in a clean file makes
// GetBatch fail with a checksum error — it never returns garbage.
func TestChecksumDetectsCorruptionBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.shdb")
	db, err := create(path, Options{Buckets: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := uint64(0); i < 50; i++ {
		db.Put(fp(i), Value(i))
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := int64(PageSize) + 300
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x55
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(path) // clean header: no recovery, flip undetected until read
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db2.Close()
	var corrupt *CorruptionError
	_, _, gerr := db2.GetBatch(context.Background(), []fingerprint.Fingerprint{fp(1), fp(2), fp(3)})
	if !errors.As(gerr, &corrupt) {
		t.Fatalf("GetBatch on corrupted page = %v, want CorruptionError", gerr)
	}
}

// Ensure a corrupted file left dirty also recovers instead of erroring:
// the same byte flip plus an unclean header exercises quarantine on a
// bucket page (its chain tail, if any, is salvaged).
func TestRecoveryAfterByteFlipOnDirtyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flipdirty.shdb")
	crashDB(t, path, 60)

	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := int64(PageSize) + 64
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xAA
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db, err := Open(path)
	if err != nil {
		t.Fatalf("Open after byte flip on dirty file = %v, want recovery", err)
	}
	defer db.Close()
	if rs := db.Recovery(); rs.TornPages != 1 {
		t.Fatalf("Recovery() = %+v, want TornPages=1", rs)
	}
	countSurvivors(t, db, 60) // values of survivors must be exact
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// Check CRC-scans every page and validates the directory, every bucket
// chain, the entry count and the free list without modifying anything,
// returning the first inconsistency found (nil means the file is
// structurally sound). It holds every stripe read lock for the duration,
// which also quiesces splits and compaction (both need stripe write locks),
// so the growth state it validates is stable.
func (db *DB) Check() error {
	for i := range db.stripes {
		db.stripes[i].mu.RLock()
	}
	defer func() {
		for i := len(db.stripes) - 1; i >= 0; i-- {
			db.stripes[i].mu.RUnlock()
		}
	}()
	if db.closed {
		return ErrClosed
	}
	_, err := db.check(false)
	return err
}
