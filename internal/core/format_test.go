package core

import (
	"context"
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

// TestGoldenCrashImageOpenAndReplay opens a crash image in hashdb format 5
// (testdata/mkgoldenfiles.go says how it was made, and what is in it): the
// hash table, left marked dirty, goes through its recovery pass, the journal
// replays over it, and every fingerprint answers with the value it was
// stored with. The recovery counts are the ones the writing code reported
// for the same image.
func TestGoldenCrashImageOpenAndReplay(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"golden.shdb", "golden.wal"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := hashdb.Open(filepath.Join(dir, "golden.shdb"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n := stalledJournalNode(t, db, filepath.Join(dir, "golden.wal"), 8)
	defer n.Close()
	ctx := context.Background()
	st, err := n.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r := st.Recovery; r.JournalReplayed != 34 || r.JournalTornBytes != 0 || r.Store.Runs != 1 ||
		r.Store.PagesScanned != 11 || r.Store.TornPages+r.Store.DroppedEntries+r.Store.OrphanPages != 0 {
		t.Fatalf("recovery = %+v, want 34 records replayed over an 11-page scan that repaired nothing", r)
	}
	if got := db.Len(); got != 630 {
		t.Fatalf("table holds %d entries after replay, want 630", got)
	}
	// 0..599 were in the table, 600..631 only in the journal; 3 and 605 were
	// removed again (a tombstone each).
	for i := uint64(0); i < 632; i++ {
		r, err := n.Lookup(ctx, fp(i))
		if err != nil {
			t.Fatalf("Lookup(%d): %v", i, err)
		}
		if removed := i == 3 || i == 605; r.Exists == removed || (r.Exists && r.Value != Value(i+7)) {
			t.Fatalf("Lookup(%d) = %+v, want exists=%v with value %d", i, r, !removed, i+7)
		}
	}
}
