package hashdb

// This file implements the open-time recovery pass. hashdb's page CRCs
// have always *detected* torn writes and media corruption; before this
// pass existed, a torn page made every Open (and every Get that touched
// it) fail forever. Recovery turns detection into repair:
//
//   - the trailing partial page of a write torn mid-append is truncated;
//   - pages whose CRC no longer matches are quarantined — reset to empty —
//     because their contents cannot be trusted (serving a best-effort
//     parse of a torn page could return garbage locators);
//   - the bucket directory is reconciled with the header's committed
//     linear-hashing state: directory entries beyond it name bucket pages
//     a crash caught mid-split, and those splits are rolled back — their
//     chains are salvaged back through the normal write path under the
//     committed mapping (safe because the split's write order puts every
//     entry in some CRC-valid page at every instant) and their pages
//     erased. Directory damage rolls the state back further the same way;
//   - overflow links that dangle (point past the file, into the bucket
//     region, or into a cycle) are cut. PutBatch's new-pages-before-link
//     write order means a crash strands unreferenced pages rather than
//     dangling pointers, so a dangling link only appears when a page was
//     quarantined or the file lost its tail; cutting it restores a walkable
//     chain;
//   - chains are deduplicated: compaction and splits briefly hold an entry
//     in two pages (new copy written before the old one is erased), so a
//     crash between the two writes leaves a duplicate that Delete could
//     otherwise resurrect. The first copy in chain order wins; duplicates
//     and entries that no longer hash to the chain holding them are
//     packed out;
//   - valid overflow pages left unreachable by a quarantined or cut link
//     are salvaged: their entries hash back to their buckets, so they are
//     re-inserted through the normal write path and the orphan page is
//     zeroed;
//   - the persistent free list is rebuilt from scratch out of every page
//     no chain references — the header's free-list root predates the
//     crash and cannot be trusted not to alias live pages;
//   - the entry, page, and overflow counters are recomputed from the
//     repaired file, and the header is rewritten clean and fsynced.
//
// The pass runs inside Open while the DB is still single-threaded,
// whenever the header says the file was not closed cleanly or the file
// does not bear out a header that says it was (see OpenFile).

import (
	"errors"
	"fmt"

	"shhc/internal/fingerprint"
)

// RecoveryStats summarizes what the open-time recovery pass found and
// repaired after an unclean shutdown. All counters are zero when the file
// was closed cleanly.
type RecoveryStats struct {
	// Runs counts recovery passes (0 when the file was clean, 1 after an
	// unclean open).
	Runs uint64
	// PagesScanned is the number of data pages the pass CRC-checked.
	PagesScanned uint64
	// TornPages counts pages whose CRC failed; they were quarantined
	// (reset to empty) because torn contents cannot be trusted.
	TornPages uint64
	// TailBytes is the size of a trailing partial page truncated away.
	TailBytes uint64
	// RepairedLinks counts overflow links cut because they pointed past
	// the file, into the bucket region, or into a cycle.
	RepairedLinks uint64
	// OrphanPages counts valid, non-empty overflow pages that were
	// unreachable from any bucket chain (severed by a quarantined page or
	// a cut link).
	OrphanPages uint64
	// SalvagedEntries counts entries re-inserted from orphan pages and
	// rolled-back splits.
	SalvagedEntries uint64
	// SplitRollbacks counts linear-hashing splits a crash caught before
	// their state committed; their bucket chains were salvaged back under
	// the committed mapping.
	SplitRollbacks uint64
	// DroppedEntries counts in-chain duplicates and entries that no
	// longer hashed to the chain holding them, both left by crashes
	// between a copy's write and the original's erase; the reachable
	// first copy survives.
	DroppedEntries uint64
	// FreePagesReclaimed is the size of the free list rebuilt from
	// unreferenced pages.
	FreePagesReclaimed uint64
}

// Recovery returns what the open-time recovery pass repaired. The zero
// value means the file was opened cleanly.
func (db *DB) Recovery() RecoveryStats { return db.recovery }

// zeroPage overwrites page p with zeros. A zero page is the "never
// written" form bucket pages start in: readPage accepts it as valid and
// empty, so quarantining and orphan-clearing both reduce to zeroing.
func (db *DB) zeroPage(p uint64) error {
	buf := getPage()
	defer putPage(buf)
	clear(buf)
	db.pagesWritten.Add(1)
	if _, err := db.pwrite(buf, int64(p)*PageSize); err != nil {
		return fmt.Errorf("hashdb: %s: zero page %d: %w", db.path, p, err)
	}
	return nil
}

// recover repairs the file after an unclean shutdown. It runs
// single-threaded inside Open; see the file comment for the pass's steps.
func (db *DB) recover() error {
	db.holdSplits = true
	defer func() { db.holdSplits = false }()
	rs := &db.recovery
	rs.Runs++

	// Discard the pre-crash free list before anything can allocate: pages
	// freed and reallocated around the crash could make the header's root
	// alias live chains, and the salvage Puts below go through allocRun.
	// With the list empty, recovery-time allocations always extend the
	// file; step 6 rebuilds the list from what is truly unreferenced.
	db.allocMu.Lock()
	db.freeHead, db.freeCount = 0, 0
	db.allocMu.Unlock()

	// 1. Resize: drop a torn partial tail page. The bucket region lies
	// inside the file: readHeader refuses a header whose region does not.
	fi, err := db.f.Stat()
	if err != nil {
		return fmt.Errorf("hashdb: %s: recover: %w", db.path, err)
	}
	size := fi.Size()
	if rem := size % PageSize; rem != 0 {
		rs.TailBytes = uint64(rem)
		size -= rem
		if err := db.f.Truncate(size); err != nil {
			return fmt.Errorf("hashdb: %s: recover: truncate torn tail: %w", db.path, err)
		}
	}
	pages := uint64(size) / PageSize
	db.pages.Store(pages)

	// 2. CRC scan: quarantine torn pages. A quarantined page reads back
	// as valid and empty (next = 0), so later passes see a structurally
	// sound file.
	page := getPage()
	defer putPage(page)
	for p := uint64(1); p < pages; p++ {
		rs.PagesScanned++
		err := db.readPage(p, page)
		if err == nil {
			continue
		}
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			return err // real I/O failure, not corruption
		}
		rs.TornPages++
		if err := db.zeroPage(p); err != nil {
			return err
		}
	}

	// 3. Directory reconciliation. The header's (level, split) state is
	// the committed truth: it says how many directory entries — bucket
	// pages created by splits — exist. Entries beyond it belong to splits
	// the crash caught in flight (the directory slot is written before
	// the split's state publishes) and are rolled back below; missing or
	// damaged entries roll the state itself back, which is always safe in
	// linear hashing because the bucket count moves one split at a time
	// and every rolled-back bucket's entries re-hash into reachable
	// buckets under the earlier mapping.
	committed := db.numBuckets() - db.baseBuckets
	var dirEntries, dirPageNos []uint64
	inDir := make(map[uint64]bool)
	if db.dirHead != 0 && db.dirHead < pages && db.dirHead > db.baseBuckets {
	dirWalk:
		for p := db.dirHead; p != 0; {
			if p >= pages || p <= db.baseBuckets || inDir[p] {
				break
			}
			if err := db.readPage(p, page); err != nil {
				return err
			}
			inDir[p] = true
			dirPageNos = append(dirPageNos, p)
			next := pageNext(page)
			for i := 0; i < dirSlotsPerPage; i++ {
				bp := dirEntryAt(page, i)
				if bp == 0 || bp >= pages || bp <= db.baseBuckets || inDir[bp] {
					break dirWalk
				}
				inDir[bp] = true
				dirEntries = append(dirEntries, bp)
			}
			p = next
		}
	}
	target := len(dirEntries)
	if uint64(target) > committed {
		target = int(committed)
	}
	extras := dirEntries[target:]
	rs.SplitRollbacks += uint64(len(extras))
	// Re-anchor the in-memory mapping at the reconciled bucket count.
	total := db.baseBuckets + uint64(target)
	var level uint8
	for db.baseBuckets<<(level+1) <= total {
		level++
	}
	db.state.Store(packState(level, total-db.baseBuckets<<level))
	keepDirPages := (target + dirSlotsPerPage - 1) / dirSlotsPerPage
	if target == 0 {
		db.dirHead = 0
		db.dirPages = nil
	} else {
		db.dirPages = dirPageNos[:keepDirPages]
		// Erase the slots beyond the committed entries in the last kept
		// directory page and cut its link, so a stale slot can never be
		// mistaken for an in-flight split by a later recovery after its
		// page has been reused.
		last := db.dirPages[keepDirPages-1]
		if err := db.readPage(last, page); err != nil {
			return err
		}
		for i := target - (keepDirPages-1)*dirSlotsPerPage; i < dirSlotsPerPage; i++ {
			setDirEntryAt(page, i, 0)
		}
		setPageNext(page, 0)
		if err := db.writePage(last, page); err != nil {
			return err
		}
	}
	dirCopy := append([]uint64(nil), dirEntries[:target]...)
	db.dir.Store(&bucketDir{pages: dirCopy, n: target})

	// Collect the rolled-back splits' entries and erase their chains. The
	// salvage Puts run after the recount so the counters stay exact.
	var salvage []Pair
	for _, bp := range extras {
		for p := bp; p != 0; {
			if err := db.readPage(p, page); err != nil {
				return err
			}
			n := pageCount(page)
			for i := 0; i < n; i++ {
				fp, v := entryAt(page, i)
				salvage = append(salvage, Pair{FP: fp, Val: v})
			}
			next := pageNext(page)
			if err := db.zeroPage(p); err != nil {
				return err
			}
			if next >= pages || next <= db.baseBuckets || inDir[next] {
				break
			}
			inDir[next] = true
			p = next
		}
	}
	rs.SalvagedEntries += uint64(len(salvage))

	// 4. Chain walk: recount entries, cut links that dangle, and pack out
	// duplicate or stray entries (see the file comment). reached marks
	// every page owned by some bucket chain or by the directory; the heads
	// of split buckets are marked up front, so a link into one is cut
	// rather than walked into a chain two buckets would share.
	reached := make([]bool, pages)
	for _, p := range db.dirPages {
		reached[p] = true
	}
	for _, p := range dirCopy {
		reached[p] = true
	}
	chainSeen := make(map[fingerprint.Fingerprint]struct{})
	var entries, overflow uint64
	nb := db.numBuckets()
	for b := uint64(0); b < nb; b++ {
		head := db.bucketPageOf(b)
		cur := head
		depth := 0
		clear(chainSeen)
		for {
			reached[cur] = true
			if err := db.readPage(cur, page); err != nil {
				return err
			}
			// Drop entries that are duplicates of one already reached in
			// this chain, or that no longer hash to this bucket — both
			// are stale copies a crash left behind mid-compaction or
			// mid-split; keeping them would let a future Delete
			// resurrect the other copy.
			n := pageCount(page)
			w := 0
			for i := 0; i < n; i++ {
				fp, v := entryAt(page, i)
				if _, dup := chainSeen[fp]; dup || db.bucketOf(fp) != b {
					rs.DroppedEntries++
					continue
				}
				chainSeen[fp] = struct{}{}
				if w != i {
					setEntryAt(page, w, fp, v)
				}
				w++
			}
			if w != n {
				setPageCount(page, w)
				if err := db.writePage(cur, page); err != nil {
					return err
				}
			}
			entries += uint64(w)
			if depth > 0 {
				overflow++
			}
			next := pageNext(page)
			if next == 0 {
				break
			}
			if next >= pages || next <= db.baseBuckets || reached[next] {
				// Dangling, into the bucket region, or a cycle: cut.
				setPageNext(page, 0)
				if err := db.writePage(cur, page); err != nil {
					return err
				}
				rs.RepairedLinks++
				break
			}
			cur = next
			depth++
		}
	}
	db.entries.Store(entries)
	db.overflowPages.Store(overflow)

	// 5. Salvage. First the rolled-back splits' entries: re-inserting
	// them under the committed mapping is idempotent — a copy the split's
	// source rewrite never erased is simply overwritten. Then entries on
	// valid pages no chain reaches, which hash back to their buckets the
	// same way; the orphan page is cleared so the free-list rebuild can
	// take it.
	for p := uint64(1); p < pages; p++ {
		if reached[p] {
			continue
		}
		if err := db.readPage(p, page); err != nil {
			return err
		}
		n := pageCount(page)
		if n == 0 {
			continue
		}
		rs.OrphanPages++
		rs.SalvagedEntries += uint64(n)
		for i := 0; i < n; i++ {
			fp, v := entryAt(page, i)
			salvage = append(salvage, Pair{FP: fp, Val: v})
		}
		if err := db.zeroPage(p); err != nil {
			return err
		}
	}
	for _, pr := range salvage {
		if _, err := db.Put(pr.FP, pr.Val); err != nil {
			return fmt.Errorf("hashdb: %s: recover: salvage %s: %w", db.path, pr.FP.Short(), err)
		}
	}

	// 6. Rebuild the free list (emptied at the top of the pass) from every
	// page nothing references. Only the pre-salvage page range is swept:
	// pages the salvage Puts appended are live chain pages, and any page in
	// the old range they touched was already reached (the free list was
	// empty, so their allocations only extended the file).
	for p := pages - 1; p >= 1; p-- {
		if reached[p] {
			continue
		}
		if err := db.freePage(p); err != nil {
			return err
		}
		rs.FreePagesReclaimed++
	}

	// 7. Commit: repairs durable first, then the clean mark (commitClean's
	// two-fsync order), so a crash mid-recovery leaves a dirty header and
	// the next open simply recovers again.
	return db.commitClean()
}

// check walks a quiesced table (Open's, and the tests' Check); it counts the overflow pages
// on the chains. At open (lenient) a page whose checksum fails is passed
// over, its link unfollowed and its entries uncounted: in a file its header
// calls clean, such a page is the business of the read that touches it.
func (db *DB) check(lenient bool) (overflow uint64, err error) {
	corrupt := func(format string, args ...any) error {
		return &CorruptionError{Path: db.path, Detail: fmt.Sprintf(format, args...)}
	}
	pages := db.pages.Load()
	db.allocMu.Lock()
	freeHead, freeCount := db.freeHead, db.freeCount
	db.allocMu.Unlock()
	page := getPage()
	defer putPage(page)
	damaged := false
	// read reports whether page p read back whole into page. A page that
	// claims more entries than it has slots is never passed over: the walk
	// fails on it, and Open recovers the file.
	read := func(p uint64) (bool, error) {
		if err := db.readPage(p, page); err != nil {
			var ce *CorruptionError
			if lenient && errors.As(err, &ce) && pageCount(page) <= SlotsPerPage {
				damaged = true
				return false, nil
			}
			return false, err
		}
		return true, nil
	}
	reached := make([]bool, pages)
	for _, dp := range db.dirPages {
		if dp >= pages || dp <= db.baseBuckets {
			return 0, corrupt("directory page %d out of range", dp)
		}
		reached[dp] = true
	}
	var entries uint64
	nb := db.numBuckets()
	for b := uint64(0); b < nb; b++ {
		head := db.bucketPageOf(b)
		if head == 0 || head >= pages || (b >= db.baseBuckets && head <= db.baseBuckets) {
			return 0, corrupt("bucket %d head page %d out of range", b, head)
		}
		if b >= db.baseBuckets && reached[head] {
			return 0, corrupt("bucket %d head page %d shared", b, head)
		}
		for p := head; p != 0; {
			reached[p] = true
			if ok, err := read(p); !ok {
				if err != nil {
					return 0, err
				}
				break
			}
			entries += uint64(pageCount(page))
			if p != head {
				overflow++
			}
			next := pageNext(page)
			if next != 0 && (next >= pages || next <= db.baseBuckets || reached[next]) {
				return 0, corrupt("page %d links to invalid page %d", p, next)
			}
			p = next
		}
	}
	if !damaged && entries != db.entries.Load() {
		return 0, corrupt("chains hold %d entries, the count says %d", entries, db.entries.Load())
	}
	var free uint64
	for p := freeHead; p != 0; {
		if p >= pages || p <= db.baseBuckets || reached[p] {
			return 0, corrupt("free list reaches invalid page %d", p)
		}
		reached[p] = true
		if ok, err := read(p); !ok {
			if err == nil { // the allocator could not take it
				return 0, corrupt("free page %d does not read back", p)
			}
			return 0, err
		}
		if pageCount(page) != 0 {
			return 0, corrupt("free page %d is not empty", p)
		}
		free++
		p = pageNext(page)
	}
	if free != freeCount {
		return 0, corrupt("free list holds %d pages, header says %d", free, freeCount)
	}
	// Unreferenced pages (strandable by a cancelled batch) just need to
	// be readable.
	for p := uint64(1); p < pages; p++ {
		if reached[p] {
			continue
		}
		if _, err := read(p); err != nil {
			return 0, err
		}
	}
	return overflow, nil
}
