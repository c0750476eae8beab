package core

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

// TestFingerprintPairShape guards the size the batch paths rely on: a
// three-word fingerprint (see fingerprint.TestFingerprintIsThreeWords for
// why three) and its value are four words, what the 20-byte array and its
// value padded to as well — pair slices did not grow with the change.
func TestFingerprintPairShape(t *testing.T) {
	if got := unsafe.Sizeof(Pair{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(core.Pair{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(hashdb.Pair{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(hashdb.Pair{}) = %d, want 32", got)
	}
}

// TestGoldenJournalRecord pins a journal record's bytes: whatever the
// fingerprint's in-memory representation, a record is crc32(4) kind(1), the
// 20 digest bytes, then the value, big-endian, after the 8-byte file header.
func TestGoldenJournalRecord(t *testing.T) {
	const abc = "\xa9\x99\x3e\x36\x47\x06\x81\x6a\xba\x3e\x25\x71\x78\x50\xc2\x6c\x9c\xd0\xd8\x9d" // SHA-1("abc")
	path := filepath.Join(t.TempDir(), "golden.wal")
	j, _, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.append(journalPut, fp(1), 1)
	if err := j.wait(j.append(journalPut, fingerprint.FromData([]byte("abc")), 0x0102030405060708)); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := file[8+33 : 8+2*33]
	if got, want := rec[4:], "\x01"+abc+"\x01\x02\x03\x04\x05\x06\x07\x08"; string(got) != want {
		t.Fatalf("record 1 after its CRC = %x, want %x", got, want)
	}
}

// update makes TestWriteGoldenCrashImage rewrite the committed crash image:
//
//	go test ./internal/core -run TestWriteGoldenCrashImage -update
//
// Regenerate it only with a change to the on-disk formats: that an image
// written once still opens is the point.
var update = flag.Bool("update", false, "rewrite testdata/golden.shdb and testdata/golden.wal")

// The golden crash image: fingerprint i maps to i+7.
const (
	goldenStored    = 600 // fingerprints 0..599 reach the table through Flush
	goldenJournaled = 32  // 600..631 are evicted into a destager that never runs
	goldenCache     = 8   // 632..639 stay dirty in the cache and die with the process
)

// TestWriteGoldenCrashImage writes golden.shdb and golden.wal, the crash
// image TestGoldenCrashImageOpenAndReplay opens: a hash table in hashdb
// format 5, left marked dirty, and the destage journal of the write-back
// node that was using it. With -update it writes testdata; otherwise it
// writes a temporary directory and checks that today's code makes an image
// that replays as the committed one does.
func TestWriteGoldenCrashImage(t *testing.T) {
	dir := t.TempDir()
	if *update {
		dir = "testdata"
	}
	live := t.TempDir()
	// Three buckets for 640 entries: the table splits, so the image holds a
	// directory page.
	db, err := createTable(filepath.Join(live, "golden.shdb"), hashdb.Options{Buckets: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := stalledJournalNode(t, db, filepath.Join(live, "golden.wal"), goldenCache)
	ctx := context.Background()
	insert := func(from, to uint64) {
		for i := from; i < to; i++ {
			if _, err := n.LookupOrInsert(ctx, fp(i), Value(i+7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, goldenStored)
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	insert(goldenStored, goldenStored+goldenJournaled+goldenCache)
	// Two tombstones: 3 is deleted from the table (which leaves the file
	// marked dirty, so the next open runs hashdb's recovery pass), 605 only
	// from the journal's own earlier record.
	for _, i := range []uint64{3, 605} {
		if _, err := n.Remove(fp(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The crash: copy both files as they stand, with the node still open.
	// Recovery will scan every page but the header.
	scan := db.Stats().Pages - 1
	copyFiles(t, live, dir, "golden.shdb", "golden.wal")
	n.Close()
	checkGoldenImage(t, dir, scan)
}

// TestGoldenCrashImageOpenAndReplay opens the committed crash image (see
// TestWriteGoldenCrashImage): the hash table, left marked dirty, goes
// through its recovery pass, the journal replays over it, and every
// fingerprint answers with the value it was stored with. The recovery
// counts are the ones the writing code reported for the same image, whose
// table held 11 pages after its header (a table split on another schedule
// holds another count).
func TestGoldenCrashImageOpenAndReplay(t *testing.T) {
	checkGoldenImage(t, "testdata", 11)
}

// copyFiles copies the named files from one directory to another.
func copyFiles(t *testing.T, from, to string, names ...string) {
	t.Helper()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkGoldenImage opens a copy of the crash image in src and checks its
// recovery, which must scan scan pages and repair nothing, and every
// fingerprint's answer.
func checkGoldenImage(t *testing.T, src string, scan uint64) {
	t.Helper()
	dir := t.TempDir()
	copyFiles(t, src, dir, "golden.shdb", "golden.wal")
	db, err := hashdb.Open(filepath.Join(dir, "golden.shdb"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n := stalledJournalNode(t, db, filepath.Join(dir, "golden.wal"), goldenCache)
	defer n.Close()
	ctx := context.Background()
	st, err := n.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r := st.Recovery; r.JournalReplayed != 34 || r.JournalTornBytes != 0 || r.Store.Runs != 1 ||
		r.Store.PagesScanned != scan || r.Store.TornPages+r.Store.DroppedEntries+r.Store.OrphanPages != 0 {
		t.Fatalf("recovery = %+v, want 34 records replayed over a %d-page scan that repaired nothing", r, scan)
	}
	if got := db.Len(); got != 630 {
		t.Fatalf("table holds %d entries after replay, want 630", got)
	}
	// 0..599 were in the table, 600..631 only in the journal; 3 and 605 were
	// removed again (a tombstone each).
	for i := uint64(0); i < goldenStored+goldenJournaled; i++ {
		r, err := n.Lookup(ctx, fp(i))
		if err != nil {
			t.Fatalf("Lookup(%d): %v", i, err)
		}
		if removed := i == 3 || i == 605; r.Exists == removed || (r.Exists && r.Value != Value(i+7)) {
			t.Fatalf("Lookup(%d) = %+v, want exists=%v with value %d", i, r, !removed, i+7)
		}
	}
}
