package hashdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// These tests pin format 5's page checksum: it covers a page's header and
// live entries, [4, 14+28·count), or all of a page that holds none.

// rawPageDB is a one-bucket table whose page 1 the test writes by hand.
func rawPageDB(t *testing.T) *DB {
	t.Helper()
	db, err := create(filepath.Join(t.TempDir(), "raw.shdb"), Options{Buckets: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// readRaw writes page as page 1 of db's file and reads it back through
// readPage.
func readRaw(t *testing.T, db *DB, page []byte) ([]byte, error) {
	t.Helper()
	if _, err := db.f.WriteAt(page, PageSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	return buf, db.readPage(1, buf)
}

// bucketPage is a sealed page holding n entries, linked to next, with
// random bytes in every slot past n: what a page that has lost entries to
// deletes leaves there.
func bucketPage(rng *rand.Rand, n int, next uint64) []byte {
	page := make([]byte, PageSize)
	for i := pageHdrSize; i < PageSize; i++ {
		page[i] = byte(rng.Uint32())
	}
	for i := 0; i < n; i++ {
		setEntryAt(page, i, fp(rng.Uint64()), Value(rng.Uint64()))
	}
	setPageCount(page, n)
	setPageNext(page, next)
	binary.BigEndian.PutUint32(page, pageSum(page))
	return page
}

func wantCorrupt(t *testing.T, err error, what string) {
	t.Helper()
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: readPage = %v, want a CorruptionError", what, err)
	}
}

// TestPageSpanBitFlips flips, one at a time, every bit inside the checksum's
// span of pages holding 1, 65 and 145 entries — the CRC field, the count,
// the next link and every live entry. Each flip must read as corrupt.
func TestPageSpanBitFlips(t *testing.T) {
	db := rawPageDB(t)
	rng := rand.New(rand.NewPCG(5, 5))
	for _, n := range []int{1, 65, SlotsPerPage} {
		page := bucketPage(rng, n, 77)
		if _, err := readRaw(t, db, page); err != nil {
			t.Fatalf("%d entries, unflipped: %v", n, err)
		}
		span := pageHdrSize + n*entrySize
		if pageSpan(page) != span {
			t.Fatalf("pageSpan of %d entries = %d, want %d", n, pageSpan(page), span)
		}
		for bit := 0; bit < 8*span; bit++ {
			flipped := slices.Clone(page)
			flipped[bit/8] ^= 1 << (bit % 8)
			_, err := readRaw(t, db, flipped)
			wantCorrupt(t, err, fmt.Sprintf("%d entries, bit %d flipped", n, bit))
		}
	}
}

// TestPageGarbagePastCount: what lies past a page's count is outside its
// checksum and no reader looks at it. A table whose bucket page holds
// garbage there opens clean, answers every lookup and passes Check.
func TestPageGarbagePastCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.shdb")
	db, err := create(path, Options{Buckets: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	if err := putKeys(db, 0, n); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	page := file[PageSize : 2*PageSize]
	if pageCount(page) != n {
		t.Fatalf("bucket page holds %d entries, want %d", pageCount(page), n)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := pageHdrSize + n*entrySize; i < PageSize; i++ {
		page[i] = byte(rng.Uint32())
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if rs := db.Recovery(); rs.Runs != 0 {
		t.Fatalf("garbage past count sent the clean file through recovery: %+v", rs)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	for k := uint64(0); k < n; k++ {
		if v, ok, err := db.Get(fp(k)); err != nil || !ok || v != Value(k) {
			t.Fatalf("Get(%d) = %d, %v, %v", k, v, ok, err)
		}
	}
	if db.Len() != n {
		t.Fatalf("Len = %d, want %d", db.Len(), n)
	}
}

// TestEmptyPageWholeCovered flips every bit of pages holding no entries: a
// directory page (its slots lie past its count), a free page (only its
// link), an emptied bucket page, and a never-written one. Each flip must
// read as corrupt.
func TestEmptyPageWholeCovered(t *testing.T) {
	db := rawPageDB(t)
	dir := make([]byte, PageSize)
	for i := 0; i < 100; i++ {
		setDirEntryAt(dir, i, uint64(1000+i))
	}
	setPageNext(dir, 9)
	free := make([]byte, PageSize)
	setPageNext(free, 12)
	emptied := bucketPage(rand.New(rand.NewPCG(9, 9)), 0, 0)
	for _, tc := range []struct {
		name string
		page []byte
		seal bool
	}{{"directory", dir, true}, {"free", free, true}, {"emptied", emptied, true}, {"never-written", make([]byte, PageSize), false}} {
		if tc.seal {
			binary.BigEndian.PutUint32(tc.page, pageSum(tc.page))
		}
		if _, err := readRaw(t, db, tc.page); err != nil {
			t.Fatalf("%s page, unflipped: %v", tc.name, err)
		}
		for bit := 0; bit < 8*PageSize; bit++ {
			flipped := slices.Clone(tc.page)
			flipped[bit/8] ^= 1 << (bit % 8)
			_, err := readRaw(t, db, flipped)
			wantCorrupt(t, err, fmt.Sprintf("%s page, bit %d flipped", tc.name, bit))
		}
	}
}

// pageView is what a reader takes from a page: its link and live entries.
type pageView struct {
	next    uint64
	entries []Pair
}

func viewOf(page []byte) pageView {
	v := pageView{next: pageNext(page)}
	for i := 0; i < pageCount(page); i++ {
		f, val := entryAt(page, i)
		v.entries = append(v.entries, Pair{FP: f, Val: val})
	}
	return v
}

const sectorSize = 512

// TestTornPageReadsOldOrCorrupt tears appends and deletes at 512-byte
// sector granularity: for every subset of the page's eight sectors that
// reached the disk, the page must read as the old page, as the new one, or
// as corrupt — never as a page with a wrong entry.
func TestTornPageReadsOldOrCorrupt(t *testing.T) {
	db := rawPageDB(t)
	rng := rand.New(rand.NewPCG(11, 11))
	type change struct {
		name  string
		n     int
		apply func(page []byte)
	}
	appendOne := func(page []byte) {
		n := pageCount(page)
		setEntryAt(page, n, fp(rng.Uint64()), Value(rng.Uint64()))
		setPageCount(page, n+1)
	}
	deleteAt := func(i int) func(page []byte) {
		return func(page []byte) { // as Delete does: the last entry fills the hole
			n := pageCount(page)
			lfp, lv := entryAt(page, n-1)
			setEntryAt(page, i, lfp, lv)
			setPageCount(page, n-1)
		}
	}
	var changes []change
	// Appends whose new entry lands in the header's sector, straddles the
	// first sector boundary (slot 17 is bytes 490–518), or lies sectors away.
	for _, n := range []int{0, 1, 16, 17, 18, 64, 100, SlotsPerPage - 1} {
		changes = append(changes, change{fmt.Sprintf("append to %d", n), n, appendOne})
	}
	for _, c := range []struct{ n, i int }{{1, 0}, {2, 0}, {40, 3}, {65, 0}, {65, 40}, {SlotsPerPage, 5}, {SlotsPerPage, 120}} {
		changes = append(changes, change{fmt.Sprintf("delete %d of %d", c.i, c.n), c.n, deleteAt(c.i)})
	}
	for _, c := range changes {
		old := bucketPage(rng, c.n, 0)
		updated := slices.Clone(old)
		c.apply(updated)
		binary.BigEndian.PutUint32(updated, pageSum(updated))
		oldView, newView := viewOf(old), viewOf(updated)
		for mask := 0; mask < 1<<(PageSize/sectorSize); mask++ {
			torn := slices.Clone(old)
			for s := 0; s < PageSize/sectorSize; s++ {
				if mask&(1<<s) != 0 {
					copy(torn[s*sectorSize:(s+1)*sectorSize], updated[s*sectorSize:])
				}
			}
			got, err := readRaw(t, db, torn)
			if err != nil {
				wantCorrupt(t, err, fmt.Sprintf("%s, sectors %08b written", c.name, mask))
				continue
			}
			if v := viewOf(got); !viewEqual(v, oldView) && !viewEqual(v, newView) {
				t.Fatalf("%s, sectors %08b written: read %d entries, neither the old page's %d nor the new one's %d",
					c.name, mask, len(v.entries), len(oldView.entries), len(newView.entries))
			}
		}
	}
}

func viewEqual(a, b pageView) bool {
	return a.next == b.next && slices.Equal(a.entries, b.entries)
}

// TestOpenRefusesFormat4: format 5 reads no other format. A table whose
// header slots say version 4, checksums sealed, is refused as corrupt.
func TestOpenRefusesFormat4(t *testing.T) {
	file := tableBytes(t, 2, func(db *DB) error { return putKeys(db, 0, 10) })
	for _, off := range []int{0, headerSlotStride} {
		binary.BigEndian.PutUint32(file[off+8:], 4)
	}
	sealCRCs(file)
	path := filepath.Join(t.TempDir(), "v4.shdb")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open of a version-4 header = %v, want a CorruptionError", err)
	}
}

// TestChecksumBytesPerPage: a page checksums its header and live entries,
// so ChecksumBytes grows by 10+28·count for a page with count entries.
func TestChecksumBytesPerPage(t *testing.T) {
	db := rawPageDB(t)
	before := db.Stats().ChecksumBytes
	if err := putKeys(db, 0, 3); err != nil { // one read of the empty page is the zero page: no sum
		t.Fatal(err)
	}
	if got, want := db.Stats().ChecksumBytes-before, uint64(pageHdrSize-pageCRCSize+3*entrySize); got != want {
		t.Fatalf("writing a page of 3 entries checksummed %d bytes, want %d", got, want)
	}
}
