package hashdb

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"shhc/internal/fingerprint"
)

func fp(i uint64) fingerprint.Fingerprint { return fingerprint.FromUint64(i) }

func newTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.shdb")
	db, err := Create(path, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() {
		if err := db.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("Close: %v", err)
		}
	})
	return db
}

// shapeTables passes every table Create and OpenFile make for the rest of t
// through shape (see testHook).
func shapeTables(t testing.TB, shape func(*DB)) {
	testHook = shape
	t.Cleanup(func() { testHook = nil })
}

// pinShape holds the tables of the rest of t at the bucket count they start
// with: neither the split schedule nor a long chain splits them.
func pinShape(t testing.TB) { shapeTables(t, func(db *DB) { db.holdSplits = true }) }

// sweepAt moves the unsplit fills at which the tables of the rest of t start
// and end a level's sweep (sweepFrom, sweepTo).
func sweepAt(t testing.TB, from, to float64) {
	shapeTables(t, func(db *DB) { db.sweepFrom, db.sweepTo = from, to })
}

func TestPutGetRoundTrip(t *testing.T) {
	db := newTestDB(t, Options{})
	const n = 1000
	for i := uint64(0); i < n; i++ {
		created, err := db.Put(fp(i), Value(i*7))
		if err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
		if !created {
			t.Fatalf("Put(%d) reported update, want create", i)
		}
	}
	if db.Len() != n {
		t.Fatalf("Len = %d, want %d", db.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok, err := db.Get(fp(i))
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !ok || v != Value(i*7) {
			t.Fatalf("Get(%d) = (%v, %v), want (%v, true)", i, v, ok, i*7)
		}
	}
	if _, ok, _ := db.Get(fp(n + 1)); ok {
		t.Fatal("Get of absent key reported present")
	}
}

func TestPutOverwrite(t *testing.T) {
	db := newTestDB(t, Options{})
	db.Put(fp(1), 10)
	created, err := db.Put(fp(1), 20)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if created {
		t.Fatal("overwrite reported create")
	}
	if v, _, _ := db.Get(fp(1)); v != 20 {
		t.Fatalf("value = %v, want 20", v)
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
}

func TestOverflowChains(t *testing.T) {
	// One bucket, pinned, forces every insert into the same chain.
	pinShape(t)
	db := newTestDB(t, Options{Buckets: 1})
	n := SlotsPerPage*3 + 7 // several overflow pages
	for i := 0; i < n; i++ {
		if _, err := db.Put(fp(uint64(i)), Value(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if db.Len() != n {
		t.Fatalf("Len = %d, want %d", db.Len(), n)
	}
	st := db.Stats()
	if st.OverflowPages < 3 {
		t.Fatalf("OverflowPages = %d, want >= 3", st.OverflowPages)
	}
	for i := 0; i < n; i++ {
		v, ok, err := db.Get(fp(uint64(i)))
		if err != nil || !ok || v != Value(i) {
			t.Fatalf("Get(%d) = (%v, %v, %v)", i, v, ok, err)
		}
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t, Options{Buckets: 1})
	for i := 0; i < 10; i++ {
		db.Put(fp(uint64(i)), Value(i))
	}
	ok, err := db.Delete(fp(4))
	if err != nil || !ok {
		t.Fatalf("Delete = (%v, %v), want (true, nil)", ok, err)
	}
	if ok, _ := db.Delete(fp(4)); ok {
		t.Fatal("second Delete reported present")
	}
	if db.Len() != 9 {
		t.Fatalf("Len = %d, want 9", db.Len())
	}
	// All others still present (hole was back-filled).
	for i := 0; i < 10; i++ {
		if i == 4 {
			continue
		}
		if _, ok, _ := db.Get(fp(uint64(i))); !ok {
			t.Fatalf("entry %d lost after delete", i)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.shdb")
	db, err := Create(path, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := uint64(0); i < 500; i++ {
		db.Put(fp(i), Value(i))
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db2.Close()
	if db2.Len() != 500 {
		t.Fatalf("reopened Len = %d, want 500", db2.Len())
	}
	for i := uint64(0); i < 500; i++ {
		v, ok, err := db2.Get(fp(i))
		if err != nil || !ok || v != Value(i) {
			t.Fatalf("reopened Get(%d) = (%v, %v, %v)", i, v, ok, err)
		}
	}
}

func TestCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.shdb")
	db, err := Create(path, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := uint64(0); i < 300; i++ {
		db.Put(fp(i), Value(i))
	}
	// Simulate a crash: pages were written, header still says dirty.
	if err := db.CloseWithoutSync(); err != nil {
		t.Fatalf("CloseWithoutSync: %v", err)
	}

	db2, err := Open(path)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer db2.Close()
	if db2.Len() != 300 {
		t.Fatalf("recovered Len = %d, want 300", db2.Len())
	}
	for i := uint64(0); i < 300; i++ {
		if _, ok, _ := db2.Get(fp(i)); !ok {
			t.Fatalf("entry %d lost in recovery", i)
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.shdb")
	db, err := Create(path, Options{Buckets: 1})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := uint64(0); i < 50; i++ {
		db.Put(fp(i), Value(i))
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip one byte inside the single bucket page (page 1).
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := int64(PageSize) + 100 // inside page 1's entry area
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db2.Close()
	_, _, err = db2.Get(fp(1))
	var corrupt *CorruptionError
	if !errors.As(err, &corrupt) {
		t.Fatalf("Get on corrupted page = %v, want CorruptionError", err)
	}
}

func TestEmptyBucketPagesReadCleanly(t *testing.T) {
	// Fresh bucket pages are zero-filled (no CRC ever written); reads of
	// absent keys must not report corruption.
	db := newTestDB(t, Options{})
	for i := uint64(0); i < 100; i++ {
		if _, ok, err := db.Get(fp(i)); err != nil || ok {
			t.Fatalf("Get on fresh db = (%v, %v)", ok, err)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.shdb")
	if err := writeFile(path, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	var corrupt *CorruptionError
	if !errors.As(err, &corrupt) {
		t.Fatalf("Open of zero file = %v, want CorruptionError", err)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.shdb")
	db, err := Create(path, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer db.Close()
	if _, err := Create(path, Options{}); err == nil {
		t.Fatal("second Create succeeded, want error")
	}
}

func TestClosedErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.shdb")
	db, err := Create(path, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	db.Close()
	if _, _, err := db.Get(fp(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v, want ErrClosed", err)
	}
	if _, err := db.Put(fp(1), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v, want ErrClosed", err)
	}
	if err := db.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close = %v, want ErrClosed", err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
}

func TestRange(t *testing.T) {
	db := newTestDB(t, Options{Buckets: 4})
	want := map[fingerprint.Fingerprint]Value{}
	for i := uint64(0); i < 200; i++ {
		want[fp(i)] = Value(i)
		db.Put(fp(i), Value(i))
	}
	got := map[fingerprint.Fingerprint]Value{}
	err := db.Range(func(f fingerprint.Fingerprint, v Value) bool {
		got[f] = v
		return true
	})
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for f, v := range want {
		if got[f] != v {
			t.Fatalf("Range value mismatch for %s", f.Short())
		}
	}

	// Early termination.
	visited := 0
	db.Range(func(fingerprint.Fingerprint, Value) bool {
		visited++
		return visited < 5
	})
	if visited != 5 {
		t.Fatalf("early-terminated Range visited %d, want 5", visited)
	}
}

// TestDeviceAccountingChargesPages runs a fixed sequence — Create, six
// 1 000-pair PutBatches that split the table from 16 buckets to 70, a GetBatch
// of the 6 000 keys and 1 000 absent ones, Sync, reopen, the GetBatch again —
// and pins the pages Stats().Device counts, one a page moved and one a header
// read or written. The end-to-end benchmark's page metrics read these
// counters, so a change to what they count must show here first.
func TestDeviceAccountingChargesPages(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "counters.shdb")
	db, err := Create(path, Options{Buckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]Pair, 1000)
	for round := uint64(0); round < 6; round++ {
		for i := range pairs {
			k := round*1000 + uint64(i)
			pairs[i] = Pair{FP: fp(k), Val: Value(k)}
		}
		if _, _, err := db.PutBatch(ctx, pairs); err != nil {
			t.Fatal(err)
		}
		if fill := db.Stats().UnsplitFill; fill > sweepTo {
			t.Fatalf("batch %d: unsplit fill %.1f above sweepTo %.1f", round, fill, sweepTo)
		}
	}
	fps := make([]fingerprint.Fingerprint, 7000)
	for i := range fps {
		fps[i] = fp(uint64(i))
	}
	if _, _, err := db.GetBatch(ctx, fps); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Device != (PageStats{Reads: 399, Writes: 440}) || st.Buckets != 70 {
		t.Errorf("before reopen: %+v over %d buckets, want {Reads:399 Writes:440} over 70", st.Device, st.Buckets)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, _, err := db.GetBatch(ctx, fps); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Device; got != (PageStats{Reads: 142}) {
		t.Errorf("after reopen: %+v, want {Reads:142 Writes:0}", got)
	}
}

func TestStatsShape(t *testing.T) {
	db := newTestDB(t, Options{})
	for i := uint64(0); i < 500; i++ {
		db.Put(fp(i), Value(i))
	}
	st := db.Stats()
	if st.Entries != 500 {
		t.Fatalf("Entries = %d, want 500", st.Entries)
	}
	if st.LoadFactor <= 0 || st.LoadFactor > 1.5 {
		t.Fatalf("LoadFactor = %v, out of sane range", st.LoadFactor)
	}
	if st.Pages < st.Buckets+1 {
		t.Fatalf("Pages = %d < Buckets+1 = %d", st.Pages, st.Buckets+1)
	}
}

// Property: get-after-put coherence under random keys/values, including
// duplicate keys, with a tiny bucket region to exercise overflow paths.
func TestQuickGetAfterPut(t *testing.T) {
	db := newTestDB(t, Options{Buckets: 2})
	shadow := map[fingerprint.Fingerprint]Value{}
	f := func(key uint16, val uint32) bool {
		k := fp(uint64(key % 512))
		v := Value(val)
		if _, err := db.Put(k, v); err != nil {
			return false
		}
		shadow[k] = v
		got, ok, err := db.Get(k)
		if err != nil || !ok || got != v {
			return false
		}
		return db.Len() == len(shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// Final full verification against the shadow map.
	for k, v := range shadow {
		got, ok, err := db.Get(k)
		if err != nil || !ok || got != v {
			t.Fatalf("final Get(%s) = (%v,%v,%v), want %v", k.Short(), got, ok, err, v)
		}
	}
}

func writeFile(path string, data []byte) error {
	return osWriteFile(path, data)
}

// TestGoldenPageEntry pins a page entry's bytes: whatever the fingerprint's
// in-memory representation, slot i of a page is the 20 digest bytes then the
// value, big-endian, at page offset 14+28i — after crc32(4) count(2) next(8).
func TestGoldenPageEntry(t *testing.T) {
	const abc = "\xa9\x99\x3e\x36\x47\x06\x81\x6a\xba\x3e\x25\x71\x78\x50\xc2\x6c\x9c\xd0\xd8\x9d" // SHA-1("abc")
	path := filepath.Join(t.TempDir(), "golden.shdb")
	db, err := Create(path, Options{Buckets: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Pair{{fp(1), 1}, {fingerprint.FromData([]byte("abc")), 0x0102030405060708}} {
		if _, err := db.Put(p.FP, p.Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	page := file[PageSize : 2*PageSize] // page 0 is the header, page 1 the only bucket
	if got, want := page[14+28:14+2*28], abc+"\x01\x02\x03\x04\x05\x06\x07\x08"; string(got) != want {
		t.Fatalf("slot 1 of the bucket page = %x, want %x", got, want)
	}
	if efp, v := entryAt(page, 1); efp.String() != "a9993e364706816aba3e25717850c26c9cd0d89d" || v != 0x0102030405060708 {
		t.Fatalf("entryAt = %v, %#x", efp, v)
	}
}
