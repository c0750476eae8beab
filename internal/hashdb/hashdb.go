// Package hashdb implements the persistent fingerprint hash table each SHHC
// node keeps on its SSD.
//
// The paper stores this table in Berkeley DB ("The hash table is stored on
// the SSD as a Berkeley DB"); hashdb is a from-scratch equivalent tuned to
// the same access pattern: point lookups and inserts of fixed-size
// <fingerprint, locator> records, dominated by one random 4 KB page read
// per probe. The file is a linear-hashing table that grows online (see
// resize.go):
//
//	page 0:                 header (magic, geometry, entry count, clean flag,
//	                        linear-hashing state, free list, directory root)
//	pages 1..baseBuckets:   the base bucket pages, addressed by fingerprint
//	                        prefix under the (level, split) mapping
//	pages baseBuckets+1..:  overflow pages chained from full buckets, bucket
//	                        pages created by splits (located via the bucket
//	                        directory), directory pages, and free pages
//
// The table counts the pages it reads and writes (Stats().Device) and the
// file calls that move them (ReadCalls, WriteCalls); its latency is the real
// file's, page cache or O_DIRECT.
package hashdb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"shhc/internal/fingerprint"
)

// Value is the 8-byte locator stored per fingerprint (e.g. the container or
// object ID holding the chunk in cloud storage).
type Value uint64

const (
	// PageSize is the I/O unit; matches common flash page/sector sizing.
	PageSize = 4096

	magic = "SHDB"
	// version is the file format. Format 5 records the linear-hashing
	// state, free-list root and bucket-directory root in the header, and
	// checksums what a page holds (pageSum); no other is read or written.
	version = 5

	// page layout: crc32 uint32 | count uint16 | next uint64 | entries...
	// The CRC detects torn writes and media corruption on read. It covers
	// the header after itself and the count live entries, [4, 14+28·count),
	// or, on a page whose count is 0 (directory, free, empty bucket), the
	// whole page after itself. See pageSum.
	pageCRCSize = 4
	pageHdrSize = pageCRCSize + 2 + 8
	entrySize   = fingerprint.Size + 8
	// SlotsPerPage is the number of entries a bucket/overflow page holds.
	SlotsPerPage = (PageSize - pageHdrSize) / entrySize

	// file header layout. Page 0 holds two header slots at offsets 0 and
	// headerSlotStride; writeHeader alternates between them by sequence
	// number, so a torn header write can destroy at most one slot and the
	// other still describes a consistent (if slightly stale) state. A slot:
	//
	//	crc32(4) magic(4) version(4) pageSize(4) buckets(8) entries(8)
	//	pages(8) clean(1) seq(8) level(4) split(8) freeHead(8)
	//	freePages(8) dirHead(8)
	//
	// The CRC covers everything after itself.
	fileHdrSize      = 4 + 4 + 4 + 4 + 8 + 8 + 8 + 1 + 8 + 4 + 8 + 8 + 8 + 8
	headerSlotStride = 512
)

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("hashdb: database is closed")

// CorruptionError reports a structural inconsistency found in the file.
type CorruptionError struct {
	Path   string
	Detail string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("hashdb: %s: corrupt database: %s", e.Path, e.Detail)
}

// sweepFrom and sweepTo schedule a table's splits by the mean fill of the
// buckets the split pointer has not reached, entries / (base<<level): the
// fullest buckets, since linear hashing is skewed 2 : 1 — a bucket the
// pointer has passed holds half of what an unsplit one does. A level's sweep
// starts when that fill reaches sweepFrom and owes
// base<<level × (fill − sweepFrom) / (sweepTo − sweepFrom) splits from then
// on, so it ends, and the level doubles, exactly as the fill reaches sweepTo;
// between sweeps the table does not split.
//
// sweepTo, 130.5 of 145 slots, is as full as a bucket may run for its
// spread to still fit one page and a lookup to stay one page read. It is the
// worst case of the schedule this one replaced, a constant 0.45 load factor
// (the special case sweepFrom = sweepTo / 2), which held every table half
// empty; with the same worst case a table never holds more buckets than it
// would have, and runs at a load factor of 0.45–0.62. sweepFrom was measured
// end to end (CHANGES.md): from 90, the benchmark's full-backup tables end
// with overflow pages on under 1 % of their buckets and no chain over two
// pages; from 95, 100 and 110 some passed 1 %. TestSweepBoundsEveryBatch
// holds the schedule's bounds at every batch size.
const (
	sweepTo   = 2 * 0.45 * SlotsPerPage
	sweepFrom = 90
)

// startBuckets is the bucket count a table is created with: 1 MiB of bucket
// pages, whatever the caller expects to store. Splits keep the table at the
// size of its content from there, so every batch and every destage wave
// shares pages at every age of the table. A constant, not an option: 64, 256
// and 1 024 read the same fps_per_s on first_full_wb (three seeds each,
// inside the host's noise; CHANGES.md, PR 23), so it is the smallest round
// number that keeps a table's first wave from being mostly splits.
const startBuckets = 256

// Options configures database creation.
type Options struct {
	// ExpectedItems does nothing: a table starts at startBuckets and
	// splits to the size of its content, whatever its caller expects. It
	// stays only because the end-to-end benchmark's stack (benchmark/
	// stack.go), which is frozen, still sets it.
	ExpectedItems int
	// Buckets is the bucket count the table starts with (tests); 0 selects
	// startBuckets. The table grows from it like from any other.
	Buckets uint64
}

// stripeCount is the lock-stripe count (a power of two). 64 is enough to
// keep stripe collisions rare at any realistic GOMAXPROCS while the
// all-stripe operations (Sync, Range, Close) stay cheap.
const stripeCount = 64

// stripeShift makes a stripe own blocks of 1<<stripeShift = 32 adjacent
// buckets: bucket b belongs to stripe (b>>stripeShift) & (stripeCount-1). A
// batch takes the runs of one block as one unit — one lock hold, and their
// head pages, adjacent in the base region and mostly so among split buckets
// (the file gains them in order), read and written with one file call per
// run of consecutive pages. A constant, the size of a unit: 32 chains bound
// a worker's hold on its processor as maxChunkRuns does.
const stripeShift = 5

// testHook, when set, sees every table Create and OpenFile make before they
// return it. Only this package's tests set it, to pin a table to the shape
// it starts with or to move its split trigger.
var testHook func(*DB)

// dbStripe guards a slice of the bucket space: bucket b belongs to stripe
// (b>>stripeShift) & (len(stripes)-1). Overflow pages are reached only
// through their bucket's chain, so a chain — bucket page plus its overflow
// pages — is covered entirely by one stripe lock.
type dbStripe struct {
	mu sync.RWMutex
	_  [40]byte // keep neighboring stripe locks off one cache line
}

// File is the backing-file contract DB needs. *os.File and MemFile satisfy
// it; the crash tests wrap one in simtest.FaultFile, which kills it at a
// page write and tears that page.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Sync() error
	Close() error
}

// DB is an on-disk hash table from fingerprint to Value.
//
// All methods are safe for concurrent use. The bucket space is split over
// power-of-two lock stripes so probes of different buckets proceed in
// parallel; page allocation (file growth) and header writes serialize on a
// separate allocation mutex, which lookups never touch.
type DB struct {
	f          File
	path       string
	stripes    []dbStripe
	stripeMask uint64

	// baseBuckets is the create-time bucket count, immutable for the life
	// of the file: pages 1..baseBuckets are the base bucket pages, and the
	// linear-hashing mapping is anchored to it (numBuckets() =
	// baseBuckets<<level + split).
	baseBuckets uint64
	// sweepFrom and sweepTo are the unsplit fills a level's sweep starts
	// and ends at: the constants, unless a test moved them (testHook).
	sweepFrom, sweepTo float64
	// state packs the linear-hashing (level, split) position into one
	// atomic word (see resize.go) so the read path derives a coherent
	// mapping from a single load.
	state atomic.Uint64
	// dir is the published bucket directory locating the bucket pages
	// splits created (bucket b >= baseBuckets lives at dir.pages[b-base]).
	dir atomic.Pointer[bucketDir]
	// splitMu serializes structural growth: bucket splits, compaction, and
	// directory appends. Lock order: splitMu, then stripe locks, then
	// allocMu. The read and write paths never take it.
	splitMu sync.Mutex
	// wantSplit is set by write-path chain walks that observe a chain of
	// chainSplitTrigger+ pages; the next write drains it into a split.
	wantSplit atomic.Bool
	splits    atomic.Uint64
	// staleRetries counts the rounds in which a batch (or a Put) regrouped
	// and retried keys a concurrent split remapped between its lock-free
	// bucket computation and the stripe lock.
	staleRetries atomic.Uint64
	// split is splitOne's staging, kept from one split to the next; splitMu
	// guards it.
	split splitScratch
	// holdSplits suppresses split triggering: while the open-time recovery
	// pass re-inserts salvaged entries through the normal write path, and
	// for good in a table a test pinned to its starting shape (testHook).
	// Written only while Create or Open runs single-threaded.
	holdSplits bool

	// allocMu serializes page allocation (growing the file), the free
	// list, and header state transitions. Lock order: stripe lock, then
	// allocMu; allocMu never acquires stripe locks.
	allocMu sync.Mutex
	// freeHead/freeCount are the persistent free-page list (guarded by
	// allocMu): freed pages chain through their next fields on disk, and
	// the allocator drains the chain before extending the file.
	freeHead  uint64
	freeCount uint64
	// dirHead roots the on-disk directory page chain; dirPages mirrors the
	// chain in memory. Mutated under splitMu (dirHead also under allocMu,
	// because writeHeader persists it).
	dirHead  uint64
	dirPages []uint64

	entries       atomic.Uint64
	pages         atomic.Uint64 // total pages including header
	overflowPages atomic.Uint64 // chain statistics, for diagnostics
	dirty         atomic.Bool   // header on disk says unclean
	// headerSeq is the sequence number of the newest on-disk header slot;
	// writeHeader bumps it and writes slot seq%2. Guarded by the same
	// quiescence discipline as writeHeader itself.
	headerSeq uint64
	// recovery summarizes the open-time repair pass. Written only while
	// Open runs single-threaded, immutable afterwards.
	recovery RecoveryStats

	// Chain-degradation telemetry, recorded by every write-path chain
	// walk: the longest chain seen and a histogram of observed chain
	// lengths (bucket i counts chains of i+1 pages, the last clamps).
	maxChain  atomic.Uint64
	chainHist [chainHistBuckets]atomic.Uint64
	// checksumBytes counts the bytes every page read and write has
	// checksummed (pageSpan less the CRC field).
	checksumBytes atomic.Uint64
	// readCalls and writeCalls count the file calls (pread, pwrite).
	readCalls, writeCalls atomic.Uint64
	// pagesRead and pagesWritten count the pages those calls move
	// (Stats().Device).
	pagesRead, pagesWritten atomic.Int64
	// closed is written with every stripe write-locked and read under any
	// stripe lock, so each operation observes it coherently.
	closed bool
}

// chainHistBuckets sizes the observed chain-length histogram; chains of
// chainHistBuckets or more pages clamp into the last bucket.
const chainHistBuckets = 8

// observeChain records one write-path walk of a chain of n pages. A deep
// chain is the live telemetry that requests a bucket split: lookups in
// that region are paying n page reads, so growth is overdue there no
// matter what the aggregate load factor says.
func (db *DB) observeChain(n int) {
	if n <= 0 {
		return
	}
	b := n - 1
	if b >= chainHistBuckets {
		b = chainHistBuckets - 1
	}
	db.chainHist[b].Add(1)
	if n >= chainSplitTrigger {
		db.wantSplit.Store(true)
	}
	for {
		cur := db.maxChain.Load()
		if uint64(n) <= cur || db.maxChain.CompareAndSwap(cur, uint64(n)) {
			break
		}
	}
}

// newDB is the in-memory side of a table over f, before its geometry is set.
func newDB(f File, path string) *DB {
	db := &DB{f: f, path: path, stripes: make([]dbStripe, stripeCount),
		sweepFrom: sweepFrom, sweepTo: sweepTo}
	db.stripeMask = uint64(len(db.stripes) - 1)
	db.dir.Store(&bucketDir{})
	return db
}

// Create creates a new database file at path, failing if it exists. The
// file and its directory entry are durable when it returns.
func Create(path string, opts Options) (*DB, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("hashdb: create %s: %w", path, err)
	}
	db, err := CreateFile(f, path, opts)
	if err != nil {
		return nil, err
	}
	if err := SyncDir(path); err != nil {
		db.Close()
		os.Remove(path)
		return nil, fmt.Errorf("hashdb: create %s: %w", path, err)
	}
	return db, nil
}

// SyncDir fsyncs the directory holding path, which makes a file just
// created there durable under its name.
func SyncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// CreateFile is Create over an injected, freshly created backing file
// (alternate I/O backends such as directio, a MemFile, testing). path names
// the file in messages and is removed when initialization fails. The clean
// header is fsynced before CreateFile returns, so a table created just
// before a power cut opens; the caller syncs the directory. CreateFile takes
// ownership of f.
func CreateFile(f File, path string, opts Options) (*DB, error) {
	db := newDB(f, path)
	db.baseBuckets = opts.Buckets
	if db.baseBuckets == 0 {
		db.baseBuckets = startBuckets
	}
	db.pages.Store(1 + db.baseBuckets)
	// Zero-fill header + bucket region so bucket pages read back as empty.
	if err := f.Truncate(int64(db.pages.Load()) * PageSize); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("hashdb: create %s: %w", path, err)
	}
	err := db.writeHeader(true)
	if err == nil {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("hashdb: create %s: sync header: %w", path, err)
		}
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if testHook != nil {
		testHook(db)
	}
	return db, nil
}

// Open opens an existing database. If the file was not closed cleanly, Open
// runs the recovery pass (see recovery.go): torn pages are quarantined,
// dangling overflow links cut, orphaned chain tails salvaged, and the
// counters recomputed, so an unclean file never fails Open permanently.
func Open(path string) (*DB, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("hashdb: open %s: %w", path, err)
	}
	return OpenFile(f, path)
}

// OpenFile is Open over an injected backing file (directio, a MemFile a
// table was created over, failure injection). path is used for messages only. OpenFile takes
// ownership of f and closes it when opening fails.
//
// A clean header is believed only once the file bears it out: its pages
// exist, its directory loads, and the walk Check makes finds the chains, the
// free list and the entry count it describes (a page whose checksum fails is
// left for the read that touches it to report). A clean file that does not
// is marked dirty and recovered like one a crash left behind.
func OpenFile(f File, path string) (*DB, error) {
	db := newDB(f, path)
	fail := func(err error) (*DB, error) {
		f.Close()
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("hashdb: %s: stat: %w", path, err))
	}
	filePages := uint64(fi.Size()) / PageSize
	if err := db.readHeader(filePages); err != nil {
		return fail(err)
	}
	if !db.dirty.Load() && !db.bearsOut(filePages) {
		// Recovery rewrites pages, so the header says so first.
		if err := db.markDirty(); err != nil {
			return fail(err)
		}
	}
	if db.dirty.Load() {
		// recover validates (and if necessary rolls back) the directory
		// and rebuilds the free list itself; it must not trust them.
		if err := db.recover(); err != nil {
			return fail(err)
		}
	}
	if testHook != nil {
		testHook(db)
	}
	return db, nil
}

// bearsOut reports whether a file of filePages pages holds what its clean
// header claims, loading the directory and counting the overflow pages on
// the way. Runs single-threaded inside Open.
func (db *DB) bearsOut(filePages uint64) bool {
	if db.pages.Load() > filePages || db.loadDir() != nil {
		return false
	}
	overflow, err := db.check(true)
	db.overflowPages.Store(overflow)
	return err == nil
}

// loadDir mirrors the on-disk bucket directory into memory on a clean
// open: the header's (level, split) state says exactly how many directory
// entries are committed, and the chain rooted at dirHead holds them in
// order. Runs single-threaded inside Open.
func (db *DB) loadDir() error {
	want := int(db.numBuckets() - db.baseBuckets)
	if want == 0 {
		if db.dirHead != 0 {
			return &CorruptionError{Path: db.path, Detail: "directory root set with no split buckets"}
		}
		return nil
	}
	pages := db.pages.Load()
	entries := make([]uint64, 0, want)
	buf := getPage()
	defer putPage(buf)
	for p := db.dirHead; p != 0 && len(entries) < want; {
		if p >= pages {
			return &CorruptionError{Path: db.path, Detail: fmt.Sprintf("directory page %d out of range", p)}
		}
		if err := db.readPage(p, buf); err != nil {
			return err
		}
		db.dirPages = append(db.dirPages, p)
		for i := 0; i < dirSlotsPerPage && len(entries) < want; i++ {
			bp := dirEntryAt(buf, i)
			if bp == 0 || bp >= pages || bp <= db.baseBuckets {
				return &CorruptionError{Path: db.path, Detail: fmt.Sprintf("directory entry %d names invalid bucket page %d", len(entries), bp)}
			}
			entries = append(entries, bp)
		}
		p = pageNext(buf)
	}
	if len(entries) < want {
		return &CorruptionError{Path: db.path, Detail: fmt.Sprintf("directory holds %d of %d bucket pages", len(entries), want)}
	}
	db.dir.Store(&bucketDir{pages: entries, n: len(entries)})
	return nil
}

// writeHeader persists the file header into the slot the bumped sequence
// number selects, so a torn header write can destroy at most one of the two
// slots. Callers must hold allocMu or have otherwise quiesced mutators
// (Create/recover run single-threaded; Sync and Close hold every stripe
// write lock).
func (db *DB) writeHeader(clean bool) error {
	seq := db.headerSeq + 1
	level, split := unpackState(db.state.Load())
	var buf [fileHdrSize]byte
	copy(buf[4:8], magic)
	binary.BigEndian.PutUint32(buf[8:12], version)
	binary.BigEndian.PutUint32(buf[12:16], PageSize)
	binary.BigEndian.PutUint64(buf[16:24], db.baseBuckets)
	binary.BigEndian.PutUint64(buf[24:32], db.entries.Load())
	binary.BigEndian.PutUint64(buf[32:40], db.pages.Load())
	if clean {
		buf[40] = 1
	}
	binary.BigEndian.PutUint64(buf[41:49], seq)
	binary.BigEndian.PutUint32(buf[49:53], uint32(level))
	binary.BigEndian.PutUint64(buf[53:61], split)
	binary.BigEndian.PutUint64(buf[61:69], db.freeHead)
	binary.BigEndian.PutUint64(buf[69:77], db.freeCount)
	binary.BigEndian.PutUint64(buf[77:85], db.dirHead)
	binary.BigEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[4:]))
	db.pagesWritten.Add(1)
	if _, err := db.pwrite(buf[:], int64(seq%2)*headerSlotStride); err != nil {
		return fmt.Errorf("hashdb: %s: write header: %w", db.path, err)
	}
	db.headerSeq = seq
	// Writing a *dirty* header must NOT publish db.dirty here: markDirty's
	// lock-free fast path reads it, and a mutator that saw it true would
	// write pages while the mark is still only in the OS page cache — a
	// crash could then persist the torn page but not the mark. markDirty
	// publishes the flag itself, after its fsync returns.
	if clean {
		db.dirty.Store(false)
	}
	return nil
}

// header is one decoded header slot.
type header struct {
	seq, base, entries, pages  uint64
	clean                      bool
	level                      uint32
	split, freeHead, freeCount uint64
	dirHead                    uint64
}

// decodeHeaderSlot decodes one header slot, reporting whether it is one:
// the magic, the version, the page size and the checksum all agree.
func decodeHeaderSlot(buf []byte) (h header, ok bool) {
	be := binary.BigEndian
	if string(buf[4:8]) != magic || be.Uint32(buf[8:12]) != version || be.Uint32(buf[12:16]) != PageSize ||
		crc32.ChecksumIEEE(buf[4:fileHdrSize]) != be.Uint32(buf[0:4]) {
		return h, false
	}
	return header{
		base: be.Uint64(buf[16:24]), entries: be.Uint64(buf[24:32]), pages: be.Uint64(buf[32:40]),
		clean: buf[40] == 1, seq: be.Uint64(buf[41:49]),
		level: be.Uint32(buf[49:53]), split: be.Uint64(buf[53:61]),
		freeHead: be.Uint64(buf[61:69]), freeCount: be.Uint64(buf[69:77]), dirHead: be.Uint64(buf[77:85]),
	}, true
}

// invalid says why no table in a file of filePages pages can have written h,
// or returns "" when one can. It runs before anything is sized from the
// header. A dirty header's growth state and counts only bound what recovery
// re-derives from the file, so only a clean one answers for them.
func (h *header) invalid(filePages uint64) string {
	switch {
	case h.base == 0 || h.pages <= h.base:
		return "inconsistent geometry"
	case h.base >= filePages:
		return fmt.Sprintf("%d bucket pages do not fit a file of %d pages", h.base, filePages)
	case h.level >= 64 || h.base > math.MaxUint64>>h.level || h.split >= 1<<splitBits ||
		h.base<<h.level > math.MaxUint64-h.split:
		return fmt.Sprintf("growth state (level %d, split %d) out of range", h.level, h.split)
	}
	top := h.base << h.level
	if !h.clean {
		return ""
	}
	if h.split >= top {
		return fmt.Sprintf("split pointer %d past the %d buckets of level %d", h.split, top, h.level)
	}
	// Past the base region, the directory names a page per split bucket and
	// takes pages of its own.
	dirEntries := top - h.base + h.split
	dirPages := dirEntries / dirSlotsPerPage
	if dirEntries%dirSlotsPerPage != 0 {
		dirPages++
	}
	if avail := h.pages - 1 - h.base; dirEntries > avail || dirPages > avail-dirEntries {
		return fmt.Sprintf("%d split buckets and their directory do not fit %d pages", dirEntries, h.pages)
	}
	return ""
}

// readHeader loads the newer of the two header slots that decode, in a file
// of filePages pages.
func (db *DB) readHeader(filePages uint64) error {
	var slots [2][fileHdrSize]byte
	db.pagesRead.Add(1)
	if _, err := db.pread(slots[0][:], 0); err != nil {
		return fmt.Errorf("hashdb: %s: read header: %w", db.path, err)
	}
	// The second slot may not exist yet in a file torn during Create.
	if _, err := db.pread(slots[1][:], headerSlotStride); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("hashdb: %s: read header: %w", db.path, err)
	}
	var h header
	found := false
	for i := range slots {
		if s, ok := decodeHeaderSlot(slots[i][:]); ok && (!found || s.seq > h.seq) {
			h, found = s, true
		}
	}
	if !found {
		return &CorruptionError{Path: db.path, Detail: "no valid header slot"}
	}
	if why := h.invalid(filePages); why != "" {
		return &CorruptionError{Path: db.path, Detail: why}
	}
	db.headerSeq = h.seq
	db.dirty.Store(!h.clean)
	db.baseBuckets = h.base
	db.entries.Store(h.entries)
	db.pages.Store(h.pages)
	db.state.Store(packState(uint8(h.level), h.split))
	db.freeHead, db.freeCount, db.dirHead = h.freeHead, h.freeCount, h.dirHead
	return nil
}

// pageSpan is the end of the bytes a page's checksum covers. The span is
// every byte a reader interprets: the count and next fields and the count
// live entries, so a page costs a checksum in proportion to what it holds,
// not to its size. A corrupt count moves the span and fails the check, and
// no reader looks at a slot past count, so the garbage a delete leaves
// there needs no cover. A count-0 page (directory, free, empty bucket)
// keeps its whole body covered: a directory page's slots lie past its
// count. A count above SlotsPerPage fails in readPage before any sum.
func pageSpan(page []byte) int {
	if n := pageCount(page); n > 0 && n <= SlotsPerPage {
		return pageHdrSize + n*entrySize
	}
	return PageSize
}

// pageSum is the checksum a page stores in its first four bytes.
func pageSum(page []byte) uint32 {
	return crc32.ChecksumIEEE(page[pageCRCSize:pageSpan(page)])
}

// sum is pageSum, counted in Stats().ChecksumBytes.
func (db *DB) sum(page []byte) uint32 {
	db.checksumBytes.Add(uint64(pageSpan(page) - pageCRCSize))
	return pageSum(page)
}

// readPage reads page p into buf and verifies it (checkPage).
func (db *DB) readPage(p uint64, buf []byte) error {
	return db.readPages(context.Background(), p, buf)
}

// readPages reads the len(buf)/PageSize consecutive pages from page p on into
// buf with one file call and verifies each (checkPage). Cancelling ctx stops
// the call before it is made.
func (db *DB) readPages(ctx context.Context, p uint64, buf []byte) error {
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	db.pagesRead.Add(int64(len(buf) / PageSize))
	if _, err := db.pread(buf, int64(p)*PageSize); err != nil {
		return fmt.Errorf("hashdb: %s: read page %d: %w", db.path, p, err)
	}
	for i := 0; i < len(buf); i += PageSize {
		if err := db.checkPage(p+uint64(i/PageSize), buf[i:i+PageSize]); err != nil {
			return err
		}
	}
	return nil
}

// checkPage verifies page p as read into buf: a page that claims more entries
// than it has slots, or whose checksum fails, is a CorruptionError.
func (db *DB) checkPage(p uint64, buf []byte) error {
	stored := binary.BigEndian.Uint32(buf[0:pageCRCSize])
	if stored == 0 && isZeroPage(buf[pageCRCSize:]) {
		// Never-written bucket page from the initial truncate: valid and
		// empty by construction.
		return nil
	}
	if c := pageCount(buf); c > SlotsPerPage {
		return &CorruptionError{Path: db.path, Detail: fmt.Sprintf("page %d count %d exceeds capacity", p, c)}
	}
	if got := db.sum(buf); got != stored {
		return &CorruptionError{
			Path:   db.path,
			Detail: fmt.Sprintf("page %d checksum mismatch (stored %08x, computed %08x)", p, stored, got),
		}
	}
	return nil
}

var zeroPage [PageSize]byte

func isZeroPage(b []byte) bool { return bytes.Equal(b, zeroPage[:len(b)]) }

func (db *DB) writePage(p uint64, buf []byte) error { return db.writePages(p, buf) }

// writePages seals the len(buf)/PageSize consecutive pages from page p on and
// writes them with one file call.
func (db *DB) writePages(p uint64, buf []byte) error {
	for i := 0; i < len(buf); i += PageSize {
		page := buf[i : i+PageSize]
		binary.BigEndian.PutUint32(page[0:pageCRCSize], db.sum(page))
	}
	db.pagesWritten.Add(int64(len(buf) / PageSize))
	if _, err := db.pwrite(buf, int64(p)*PageSize); err != nil {
		return fmt.Errorf("hashdb: %s: write page %d: %w", db.path, p, err)
	}
	return nil
}

// pread and pwrite are the table's file calls, counted in Stats().ReadCalls
// and WriteCalls.
func (db *DB) pread(buf []byte, off int64) (int, error) {
	db.readCalls.Add(1)
	return db.f.ReadAt(buf, off)
}

func (db *DB) pwrite(buf []byte, off int64) (int, error) {
	db.writeCalls.Add(1)
	return db.f.WriteAt(buf, off)
}

// markDirty lazily flips the on-disk clean flag before the first mutation
// after open/sync, so a crash is detectable. The flag is fsynced before
// markDirty returns: were the mark allowed to reorder behind later page
// writes, a crash could leave torn pages in a file whose header still says
// clean, and Open would skip the recovery pass that repairs them.
// Concurrent mutators race to the fast path; the loser of the allocMu
// handoff sees dirty already set.
func (db *DB) markDirty() error {
	if db.dirty.Load() {
		return nil
	}
	db.allocMu.Lock()
	defer db.allocMu.Unlock()
	if db.dirty.Load() {
		return nil
	}
	if err := db.writeHeader(false); err != nil {
		return err
	}
	if err := db.f.Sync(); err != nil {
		return fmt.Errorf("hashdb: %s: sync dirty mark: %w", db.path, err)
	}
	// Only now may other mutators take the fast path: the mark is durable,
	// so any page they tear will be flagged for recovery at the next open.
	db.dirty.Store(true)
	return nil
}

// pagePool recycles 4 KB page buffers across probes; the hot path would
// otherwise allocate one per lookup. The pool holds *[PageSize]byte, not
// []byte: a pointer fits an interface value without allocating, whereas a
// slice header gets boxed on every Put — an allocation on the exact path
// the pool exists to remove. Pages are always full-size, so the
// slice↔array-pointer conversions are total.
var pagePool = sync.Pool{New: func() any { return new([PageSize]byte) }}

// getPage acquires a pooled page; release it with putPage.
//
//shhc:returns-buf
func getPage() []byte { return pagePool.Get().(*[PageSize]byte)[:] }

// putPage returns a page acquired from getPage to the pool.
//
//shhc:takes-buf b
func putPage(b []byte) { pagePool.Put((*[PageSize]byte)(b)) }

func pageCount(page []byte) int {
	return int(binary.BigEndian.Uint16(page[pageCRCSize : pageCRCSize+2]))
}
func pageNext(page []byte) uint64 {
	return binary.BigEndian.Uint64(page[pageCRCSize+2 : pageCRCSize+10])
}
func setPageCount(page []byte, n int) {
	binary.BigEndian.PutUint16(page[pageCRCSize:pageCRCSize+2], uint16(n))
}
func setPageNext(page []byte, p uint64) {
	binary.BigEndian.PutUint64(page[pageCRCSize+2:pageCRCSize+10], p)
}

func entryAt(page []byte, i int) (fingerprint.Fingerprint, Value) {
	e := page[pageHdrSize+i*entrySize:][:entrySize]
	return fingerprint.FromBytes(e), Value(binary.BigEndian.Uint64(e[fingerprint.Size:]))
}

// entryIs reports whether slot i holds fp. It compiles to word compares
// against the page, prefix first: the chain scans dismiss nearly every entry
// on one load, and materialise none.
func entryIs(page []byte, i int, fp fingerprint.Fingerprint) bool {
	return fingerprint.FromBytes(page[pageHdrSize+i*entrySize:]) == fp
}

func entryVal(page []byte, i int) Value {
	return Value(binary.BigEndian.Uint64(page[pageHdrSize+i*entrySize+fingerprint.Size:]))
}

func setEntryAt(page []byte, i int, fp fingerprint.Fingerprint, v Value) {
	e := page[pageHdrSize+i*entrySize:][:entrySize]
	fp.Put(e)
	binary.BigEndian.PutUint64(e[fingerprint.Size:], uint64(v))
}

// Get returns the value stored for fp.
func (db *DB) Get(fp fingerprint.Fingerprint) (Value, bool, error) {
	b, st := db.rlockBucket(fp.Prefix64())
	defer st.mu.RUnlock()
	if db.closed {
		return 0, false, ErrClosed
	}
	page := getPage()
	defer putPage(page)
	for p := db.bucketPageOf(b); p != 0; {
		if err := db.readPage(p, page); err != nil {
			return 0, false, err
		}
		n := pageCount(page)
		for i := 0; i < n; i++ {
			if entryIs(page, i, fp) {
				return entryVal(page, i), true, nil
			}
		}
		p = pageNext(page)
	}
	return 0, false, nil
}

// Has reports whether fp is stored, at the same I/O cost as Get. It is no
// part of Store; the frozen benchmark's store decorator still calls it.
func (db *DB) Has(fp fingerprint.Fingerprint) (bool, error) {
	_, ok, err := db.Get(fp)
	return ok, err
}

// Put stores fp -> v, overwriting any previous value. It reports whether a
// new entry was created (false means an existing entry was updated). Put is
// the batched write path's unit of one chain (putUnit): one read and at most
// one write per chain page.
func (db *DB) Put(fp fingerprint.Fingerprint, v Value) (bool, error) {
	pairs := [1]Pair{{FP: fp, Val: v}}
	var (
		created [1]bool
		stale   staleList
	)
	starts := [2]int32{0, 1}
	cs := getChainScratch()
	defer putChainScratch(cs)
	for {
		run := [1]keyed{{key: db.bucketOf(fp)}}
		if _, err := db.putUnit(context.Background(), cs, unit{items: run[:], starts: starts[:]}, pairs[:], created[:], &stale); err != nil {
			return created[0], err
		}
		if stale.take() == nil {
			break
		}
		// A concurrent split remapped fp between the bucket computation
		// and the stripe lock; retry against the new bucket.
		db.staleRetries.Add(1)
	}
	return created[0], db.maybeSplit(0)
}

// Delete removes fp, reporting whether it was present. The slot is filled
// by the page's last entry so pages stay dense; an overflow page whose
// last entry leaves is unlinked from its chain and handed to the free
// list, so delete-heavy churn shortens chains instead of leaving dead
// pages in every future walk.
func (db *DB) Delete(fp fingerprint.Fingerprint) (bool, error) {
	b, st := db.lockBucket(fp.Prefix64())
	defer st.mu.Unlock()
	if db.closed {
		return false, ErrClosed
	}
	page := getPage()
	defer putPage(page)
	head := db.bucketPageOf(b)
	prev := uint64(0) // page linking to p, 0 while p is the chain head
	for p := head; p != 0; {
		if err := db.readPage(p, page); err != nil {
			return false, err
		}
		n := pageCount(page)
		next := pageNext(page)
		for i := 0; i < n; i++ {
			if !entryIs(page, i, fp) {
				continue
			}
			if err := db.markDirty(); err != nil {
				return false, err
			}
			if i != n-1 {
				lfp, lv := entryAt(page, n-1)
				setEntryAt(page, i, lfp, lv)
			}
			setPageCount(page, n-1)
			if n == 1 && p != head {
				// The overflow page emptied: unlink and free it. Order
				// matters for crash safety — the page is written empty
				// first, so if the unlink or free never lands, recovery
				// finds an empty page and cannot resurrect the deleted
				// entry from it.
				setPageNext(page, 0)
				if err := db.writePage(p, page); err != nil {
					return false, err
				}
				if err := db.readPage(prev, page); err != nil {
					return false, err
				}
				setPageNext(page, next)
				if err := db.writePage(prev, page); err != nil {
					return false, err
				}
				if err := db.freePage(p); err != nil {
					return false, err
				}
				db.overflowPages.Add(^uint64(0))
			} else if err := db.writePage(p, page); err != nil {
				return false, err
			}
			db.entries.Add(^uint64(0))
			return true, nil
		}
		prev = p
		p = next
	}
	return false, nil
}

// Len returns the number of stored entries.
func (db *DB) Len() int {
	return int(db.entries.Load())
}

// lockAll write-locks every stripe, quiescing all mutators and probes.
// Stripes are always taken in index order so lockAll never deadlocks with
// single-stripe operations.
func (db *DB) lockAll() {
	for i := range db.stripes {
		db.stripes[i].mu.Lock()
	}
}

func (db *DB) unlockAll() {
	for i := len(db.stripes) - 1; i >= 0; i-- {
		db.stripes[i].mu.Unlock()
	}
}

// Range calls fn for every entry until fn returns false or an error occurs.
// The iteration order is by bucket chain, not key order. The walk locks one
// bucket's stripe at a time — an entry's chain is read under its stripe's
// read lock, then the lock is dropped before fn runs and before the next
// bucket is taken — so writers to other regions (and to already-visited
// ones) make progress throughout a long enumeration instead of stalling
// for the whole file scan. The cost is snapshot semantics: an entry
// present for the whole walk is delivered at least once, but a concurrent
// bucket split can deliver a moved entry twice and concurrent writes may
// or may not be seen. Callers (Bloom rebuilds, anti-entropy enumeration)
// are idempotent per entry. fn must not call back into the database.
func (db *DB) Range(fn func(fp fingerprint.Fingerprint, v Value) bool) error {
	page := getPage()
	defer putPage(page)
	var pending []Pair
	for b := uint64(0); b < db.numBuckets(); b++ {
		st := db.stripeOf(b)
		st.mu.RLock()
		if db.closed {
			st.mu.RUnlock()
			return ErrClosed
		}
		pending = pending[:0]
		for p := db.bucketPageOf(b); p != 0; {
			if err := db.readPage(p, page); err != nil {
				st.mu.RUnlock()
				return err
			}
			n := pageCount(page)
			for i := 0; i < n; i++ {
				fp, v := entryAt(page, i)
				pending = append(pending, Pair{FP: fp, Val: v})
			}
			p = pageNext(page)
		}
		st.mu.RUnlock()
		for _, pr := range pending {
			if !fn(pr.FP, pr.Val) {
				return nil
			}
		}
	}
	return nil
}

// commitClean makes all outstanding page writes durable and only then
// writes and fsyncs the clean header. The two-fsync order is the point:
// with a single fsync covering pages and header together, the device may
// persist the clean mark before an earlier page write — a crash would then
// leave a torn page in a file whose header says clean, and Open would skip
// the recovery pass that quarantines it. Callers must have quiesced
// mutators (Sync/Close hold every stripe lock; recover is single-threaded).
func (db *DB) commitClean() error {
	if err := db.f.Sync(); err != nil {
		return fmt.Errorf("hashdb: %s: sync data: %w", db.path, err)
	}
	if err := db.writeHeader(true); err != nil {
		return err
	}
	if err := db.f.Sync(); err != nil {
		return fmt.Errorf("hashdb: %s: sync clean mark: %w", db.path, err)
	}
	return nil
}

// Sync makes all previous writes durable and marks the file clean. It
// quiesces every stripe, so no mutation can race the clean flag.
func (db *DB) Sync() error {
	db.lockAll()
	defer db.unlockAll()
	if db.closed {
		return ErrClosed
	}
	return db.commitClean()
}

// Close syncs and closes the database.
func (db *DB) Close() error {
	db.lockAll()
	defer db.unlockAll()
	if db.closed {
		return ErrClosed
	}
	err := db.commitClean()
	if cerr := db.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("hashdb: %s: close: %w", db.path, cerr)
	}
	db.closed = true
	return err
}

// CloseWithoutSync abandons the file without marking it clean, simulating a
// crash. The next Open runs recovery. Intended for failure-injection tests.
func (db *DB) CloseWithoutSync() error {
	db.lockAll()
	defer db.unlockAll()
	if db.closed {
		return ErrClosed
	}
	db.closed = true
	if err := db.f.Close(); err != nil {
		return fmt.Errorf("hashdb: %s: close: %w", db.path, err)
	}
	return nil
}

// Stats describes the physical shape of the database.
type Stats struct {
	Entries uint64
	// Buckets is the current bucket count (base<<level + split for a
	// table that has split); BaseBuckets is the immutable create-time
	// count.
	Buckets     uint64
	BaseBuckets uint64
	// Level and SplitPointer are the linear-hashing position; Splits
	// counts bucket splits performed since open.
	Level        uint8
	SplitPointer uint64
	Splits       uint64
	// StaleRetries counts batch rounds (and Puts) repeated for keys a
	// concurrent split moved to another bucket after they were grouped.
	StaleRetries uint64
	// FreePages is the length of the persistent free-page list the
	// allocator drains before extending the file.
	FreePages     uint64
	Stripes       int
	Pages         uint64
	OverflowPages uint64
	// MaxChain is the longest bucket chain (in pages) any write-path walk
	// has visited since open; ChainHist[i] counts walks that visited i+1
	// chain pages (the last bucket clamps longer walks; an update found
	// early stops the walk, so these are pages *paid for*, the write
	// path's actual I/O shape). Together they surface chain degradation
	// that LoadFactor alone hides.
	MaxChain  uint64
	ChainHist [chainHistBuckets]uint64
	// ChecksumBytes counts the bytes page reads and writes have checksummed
	// since open: a page's header and live entries, or all of a page that
	// holds none (see pageSpan).
	ChecksumBytes uint64
	// ReadCalls and WriteCalls count the file calls since open. A batch
	// reads and writes each run of adjacent bucket pages with one, so
	// Device.Reads / ReadCalls is the pages a read call moves.
	ReadCalls, WriteCalls uint64
	// LoadFactor is entries / total bucket-region slots.
	LoadFactor float64
	// UnsplitFill is entries / (BaseBuckets<<Level), the mean fill of the
	// buckets the split pointer has not reached: the fullest ones, and
	// what the split schedule is keyed to (sweepFrom, sweepTo).
	UnsplitFill float64
	// Recovery is what the open-time recovery pass repaired (all zero
	// when the file was opened cleanly).
	Recovery RecoveryStats
	// Device counts the pages read and written since open, a header read or
	// write as one page.
	Device PageStats
}

// PageStats counts a table's page I/O.
type PageStats struct {
	Reads, Writes int64
}

// Stats returns a snapshot of the database's shape and I/O counters. The
// counters are read atomically without quiescing writers, so concurrent
// mutations may make the snapshot loosely consistent.
func (db *DB) Stats() Stats {
	entries := db.entries.Load()
	level, split := unpackState(db.state.Load())
	buckets := db.numBuckets()
	lf := 0.0
	if buckets > 0 {
		lf = float64(entries) / float64(buckets*SlotsPerPage)
	}
	db.allocMu.Lock()
	freePages := db.freeCount
	db.allocMu.Unlock()
	st := Stats{
		Entries:       entries,
		Buckets:       buckets,
		BaseBuckets:   db.baseBuckets,
		Level:         level,
		SplitPointer:  split,
		Splits:        db.splits.Load(),
		StaleRetries:  db.staleRetries.Load(),
		FreePages:     freePages,
		Stripes:       len(db.stripes),
		Pages:         db.pages.Load(),
		OverflowPages: db.overflowPages.Load(),
		MaxChain:      db.maxChain.Load(),
		ChecksumBytes: db.checksumBytes.Load(),
		ReadCalls:     db.readCalls.Load(),
		WriteCalls:    db.writeCalls.Load(),
		LoadFactor:    lf,
		UnsplitFill:   float64(entries) / float64(db.levelBuckets(level)),
		Recovery:      db.recovery,
		Device:        PageStats{Reads: db.pagesRead.Load(), Writes: db.pagesWritten.Load()},
	}
	for i := range db.chainHist {
		st.ChainHist[i] = db.chainHist[i].Load()
	}
	return st
}

var _ io.Closer = (*DB)(nil)
