package hashdb

// The run-coalesced page I/O: a batch reads and writes each run of adjacent
// bucket pages with one file call, in the crash order one call a page had.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shhc/internal/fingerprint"
)

// call is one file call: its first page and how many pages it moves.
type call struct{ page, pages int64 }

// callFile records every file call made through it, and runs onRead, if
// set, on every read call after it is made.
type callFile struct {
	File
	mu            sync.Mutex
	reads, writes []call
	onRead        func(n int)
}

func (f *callFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.mu.Lock()
	f.reads = append(f.reads, call{off / PageSize, int64(len(p)+PageSize-1) / PageSize})
	reads, onRead := len(f.reads), f.onRead
	f.mu.Unlock()
	if onRead != nil {
		onRead(reads)
	}
	return n, err
}

func (f *callFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.writes = append(f.writes, call{off / PageSize, int64(len(p)+PageSize-1) / PageSize})
	f.mu.Unlock()
	return f.File.WriteAt(p, off)
}

// reset forgets the calls made so far.
func (f *callFile) reset() {
	f.mu.Lock()
	f.reads, f.writes = nil, nil
	f.mu.Unlock()
}

// callDB is a table of the given bucket count, pinned to it, over a callFile.
func callDB(t *testing.T, buckets uint64) (*DB, *callFile) {
	t.Helper()
	pinShape(t)
	path := filepath.Join(t.TempDir(), "calls.shdb")
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f := &callFile{File: osf}
	db, err := CreateFile(f, path, Options{Buckets: buckets})
	if err != nil {
		t.Fatal(err)
	}
	return db, f
}

// TestPutBatchCoalescesPageCalls: a batch that lands on every bucket of a
// table reads and writes its head pages one stripe block (32 pages) to a
// call, and Stats counts both the pages and the calls. A chain that outgrows
// its head writes the new overflow page before the head that links it, and
// that head shares its call with the adjacent head the batch also changed.
func TestPutBatchCoalescesPageCalls(t *testing.T) {
	const buckets = 128
	db, f := callDB(t, buckets)
	defer db.Close()
	ctx := context.Background()
	dense := make([]Pair, 0, 4*buckets)
	for b := uint64(0); b < buckets; b++ {
		for k := uint64(0); k < 4; k++ {
			dense = append(dense, Pair{FP: inBucket(buckets, b, k), Val: Value(k)})
		}
	}
	if _, err := db.Put(inBucket(buckets, 0, SlotsPerPage+1), 0); err != nil { // the dirty mark's header write, off the count
		t.Fatal(err)
	}
	f.reset()
	before := db.Stats()
	if _, pages, err := db.PutBatch(ctx, dense); err != nil || pages != buckets {
		t.Fatalf("PutBatch = %d pages, %v; want %d", pages, err, buckets)
	}
	after := db.Stats()
	reads, writes := after.Device.Reads-before.Device.Reads, after.Device.Writes-before.Device.Writes
	readCalls, writeCalls := after.ReadCalls-before.ReadCalls, after.WriteCalls-before.WriteCalls
	blocks := int64(buckets >> stripeShift)
	if reads != buckets || writes != buckets || readCalls != uint64(blocks) || writeCalls != uint64(blocks) {
		t.Fatalf("a dense batch moved %d/%d pages in %d/%d read/write calls, want %d pages in %d calls each way",
			reads, writes, readCalls, writeCalls, buckets, blocks)
	}
	if len(f.reads) != int(blocks) || len(f.writes) != int(blocks) {
		t.Fatalf("the file saw %d reads and %d writes, Stats says %d and %d", len(f.reads), len(f.writes), readCalls, writeCalls)
	}
	for _, c := range append(f.reads, f.writes...) {
		if c.pages != 1<<stripeShift || (c.page-1)%(1<<stripeShift) != 0 {
			t.Fatalf("call %+v is not one stripe block's head pages", c)
		}
	}
	if _, found, err := db.GetBatch(ctx, []fingerprint.Fingerprint{dense[0].FP, dense[len(dense)-1].FP}); err != nil || !found[0] || !found[1] {
		t.Fatalf("GetBatch after the dense batch: %v, %v", found, err)
	}

	// Fill bucket 0's head, then overflow it in a batch that also changes
	// bucket 1.
	fill := make([]Pair, 0, SlotsPerPage)
	for k := uint64(5); k < SlotsPerPage; k++ {
		fill = append(fill, Pair{FP: inBucket(buckets, 0, k), Val: Value(k)})
	}
	if _, _, err := db.PutBatch(ctx, fill); err != nil {
		t.Fatal(err)
	}
	f.reset()
	grow := []Pair{{FP: inBucket(buckets, 0, SlotsPerPage), Val: 1}, {FP: inBucket(buckets, 1, SlotsPerPage), Val: 1}}
	if _, pages, err := db.PutBatch(ctx, grow); err != nil || pages != 3 {
		t.Fatalf("PutBatch = %d pages, %v; want 3 (a new overflow page and two heads)", pages, err)
	}
	if len(f.writes) != 2 || f.writes[0].page <= buckets || f.writes[0].pages != 1 || f.writes[1] != (call{1, 2}) {
		t.Fatalf("writes %+v; want the new overflow page, then heads 1-2 in one call", f.writes)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestCorruptPageInCoalescedRead: one flipped byte in the middle page of a
// three-page read fails the batch with a CorruptionError that names that
// page, as a read of the page alone would.
func TestCorruptPageInCoalescedRead(t *testing.T) {
	const buckets = 8
	db, f := callDB(t, buckets)
	defer db.Close()
	ctx := context.Background()
	fps := make([]fingerprint.Fingerprint, 3)
	pairs := make([]Pair, 3)
	for b := range fps {
		fps[b] = inBucket(buckets, uint64(b), 0)
		pairs[b] = Pair{FP: fps[b], Val: Value(b)}
	}
	if _, _, err := db.PutBatch(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	const middle = 2 // bucket 1's page
	page := make([]byte, PageSize)
	if _, err := db.f.ReadAt(page, middle*PageSize); err != nil {
		t.Fatal(err)
	}
	page[pageHdrSize+3] ^= 0x10
	if _, err := db.f.WriteAt(page, middle*PageSize); err != nil {
		t.Fatal(err)
	}
	f.reset()
	_, _, err := db.GetBatch(ctx, fps)
	var ce *CorruptionError
	if !errors.As(err, &ce) || !strings.Contains(ce.Detail, "page 2 ") {
		t.Fatalf("GetBatch over a corrupt middle page = %v, want a CorruptionError naming page %d", err, middle)
	}
	if len(f.reads) != 1 || f.reads[0] != (call{1, 3}) {
		t.Fatalf("reads %+v, want pages 1-3 in one call", f.reads)
	}
}

// TestPutBatchCancelledLenMatchesReopen: a batch cancelled in the middle —
// here, as its third unit's head pages arrive — writes out the units it has
// read and no other, so what Len counts is what a crash and a reopen find:
// every unit either whole or untouched, its entries counted exactly when
// they are on disk.
func TestPutBatchCancelledLenMatchesReopen(t *testing.T) {
	const buckets = 1 << 12
	db, f := callDB(t, buckets)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pairs := make([]Pair, 0, 4*buckets)
	fps := make([]fingerprint.Fingerprint, 0, 4*buckets)
	for b := uint64(0); b < buckets; b++ {
		for k := uint64(0); k < 4; k++ {
			pairs = append(pairs, Pair{FP: inBucket(buckets, b, k), Val: Value(k)})
			fps = append(fps, pairs[len(pairs)-1].FP)
		}
	}
	f.onRead = func(n int) {
		if n == 3 {
			cancel()
		}
	}
	if _, _, err := db.PutBatch(ctx, pairs); !errors.Is(err, context.Canceled) {
		t.Fatalf("PutBatch = %v, want context.Canceled", err)
	}
	n := db.Len()
	if n == 0 || n >= len(pairs) {
		t.Fatalf("the cancelled batch left %d of %d entries; want the units read before the cancel", n, len(pairs))
	}
	path := db.path
	if err := db.CloseWithoutSync(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Recovery().Runs == 0 {
		t.Fatal("the reopen ran no recovery")
	}
	if db2.Len() != n {
		t.Fatalf("Len %d before the crash, %d after recovery", n, db2.Len())
	}
	_, found, err := db2.GetBatch(context.Background(), fps)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, ok := range found {
		if ok {
			stored++
		}
	}
	if stored != n {
		t.Fatalf("%d entries found after recovery, Len says %d", stored, n)
	}
}

// TestFailFileKillsInsideCoalescedWrite: a kill point counts pages, so a
// write of several pages dies on its Nth page — the pages before it land,
// then the torn prefix of the killing page, and nothing after it — and a
// write after the kill lands nothing.
func TestFailFileKillsInsideCoalescedWrite(t *testing.T) {
	pageOf := func(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }
	first := pageOf('a')
	run := append(append(pageOf('b'), pageOf('c')...), pageOf('d')...)
	for _, tc := range []struct {
		kill    int64
		partial int
		want    []byte // the file after the two writes
	}{
		{1, 0, nil},
		{1, 9, first[:9]},
		{2, 0, first},
		{3, 0, append(append([]byte{}, first...), run[:PageSize]...)},
		{3, 100, append(append([]byte{}, first...), run[:PageSize+100]...)},
		{4, PageSize + 7, append(append([]byte{}, first...), run[:3*PageSize]...)}, // a tear clamps to its page
		{5, 0, append(append([]byte{}, first...), run...)},
	} {
		path := filepath.Join(t.TempDir(), "kill")
		osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		ff := NewFailFile(osf, tc.kill, tc.partial)
		_, err1 := ff.WriteAt(first, 0)
		_, err2 := ff.WriteAt(run, PageSize)
		_, err3 := ff.WriteAt(first, 4*PageSize)
		ff.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wantErrs := [3]bool{tc.kill == 1, tc.kill <= 4, true}
		if gotErrs := [3]bool{err1 != nil, err2 != nil, err3 != nil}; gotErrs != wantErrs {
			t.Errorf("kill=%d: write errors %v, %v, %v; want failures %v", tc.kill, err1, err2, err3, wantErrs)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("kill=%d partial=%d: the file holds %d bytes, want %d", tc.kill, tc.partial, len(got), len(tc.want))
		}
		if w := ff.Writes(); w != tc.kill {
			t.Errorf("kill=%d: Writes() = %d pages, want %d", tc.kill, w, tc.kill)
		}
	}
}
