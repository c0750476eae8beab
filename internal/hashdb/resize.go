package hashdb

// This file implements online growth: incremental linear-hashing bucket
// splits, the persistent page free list, and the compaction pass that
// feeds it.
//
// A bucket count fixed at create time would make the table depend on an
// operator's estimate: past it every chain grows without bound and each
// lookup pays one page read per chain page forever, and short of it a batch
// finds one entry per page to write where a table its own size would give
// it thirty. So growth is the normal state of a table: every table is
// created at startBuckets and linear hashing keeps it at the size of its
// content, without downtime or a rebuild:
//
//   - the table runs at a (level, split) state: base<<level buckets are
//     addressed at the current level and the buckets below the split
//     pointer have already been rehashed one level deeper;
//   - a split takes the bucket at the split pointer, rehashes its chain
//     one level deeper, and moves the entries whose hash gained the new
//     top bit into a freshly allocated bucket at index split+base<<level;
//   - splits are incremental — one bucket at a time, under the two
//     affected bucket-region stripe locks — and are triggered by the live
//     telemetry the write path already records (the unsplit buckets' mean
//     fill and observed chain length), not by an offline rebuild. A batch
//     splits ahead of itself, for the entries it is about to add
//     (maybeSplit).
//
// Bucket pages beyond the base region cannot live at a fixed file offset,
// so they are recorded in a small directory: a chain of pages holding
// 8-byte page numbers, rooted at the header's dirHead field. The
// in-memory mirror (bucketDir) is published with an atomic pointer so the
// read path resolves bucket→page with two atomic loads and no lock.
//
// Crash safety rides the existing dirty-mark + recovery design rather
// than per-split fsyncs. The on-disk header only advances at clean
// commits, so a crash mid-split (or any time before the next Sync) is
// rolled back by recovery: directory entries beyond the header's
// (level, split) state name bucket pages that were still in flight, and
// their entries are salvaged back through the normal write path — the
// split's write order (new bucket pages first, then the directory
// append, then the source-chain rewrite) guarantees every entry is in
// some CRC-valid page at every instant. See recovery.go.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"shhc/internal/fingerprint"
)

// splitState packs the linear-hashing position into one atomic word:
// level in the top 8 bits, split pointer in the low 56. A single load
// gives readers a coherent (level, split) pair.
const splitBits = 56

func packState(level uint8, split uint64) uint64 {
	return uint64(level)<<splitBits | split
}

func unpackState(s uint64) (level uint8, split uint64) {
	return uint8(s >> splitBits), s & (1<<splitBits - 1)
}

// bucketDir is the published bucket directory: pages[i] is the bucket
// page of bucket baseBuckets+i, valid for i < n. Appends write the slot
// at index n (never read by holders of an older snapshot) and publish a
// new header, doubling the backing array only when it fills, so readers
// index it lock-free while splits extend it.
type bucketDir struct {
	pages []uint64
	n     int
}

// dirSlotsPerPage is the number of 8-byte page numbers one directory
// page holds after the standard page header. Directory pages reuse the
// CRC and next fields but leave count at 0: how many slots are live is
// derived from the header's committed (level, split) state, so a
// directory page never claims entries a crash could make recovery (or
// orphan salvage) misread as fingerprint records.
const dirSlotsPerPage = (PageSize - pageHdrSize) / 8

func dirEntryAt(page []byte, i int) uint64 {
	return binary.BigEndian.Uint64(page[pageHdrSize+i*8:])
}

func setDirEntryAt(page []byte, i int, p uint64) {
	binary.BigEndian.PutUint64(page[pageHdrSize+i*8:], p)
}

// levelBuckets returns base<<level, the number of buckets addressed at
// the current level.
func (db *DB) levelBuckets(level uint8) uint64 {
	return db.baseBuckets << level
}

// numBuckets returns the current total bucket count (base<<level plus
// the buckets already split off this level).
func (db *DB) numBuckets() uint64 {
	level, split := unpackState(db.state.Load())
	return db.levelBuckets(level) + split
}

// bucketOf maps a fingerprint to its current bucket index under the
// linear-hashing state: hash at the current level, and one level deeper
// for buckets the split pointer has already passed.
func (db *DB) bucketOf(fp fingerprint.Fingerprint) uint64 {
	return db.bucketOfHash(fp.Prefix64())
}

func (db *DB) bucketOfHash(h uint64) uint64 { return db.mapping().bucket(h) }

// mapping is one snapshot of the linear-hashing state: n buckets addressed
// at the level, the first split of them already rehashed one level deeper.
type mapping struct{ n, split uint64 }

func (db *DB) mapping() mapping {
	level, split := unpackState(db.state.Load())
	return mapping{db.levelBuckets(level), split}
}

func (m mapping) bucket(h uint64) uint64 {
	b := h % m.n
	if b < m.split {
		b = h % (m.n << 1)
	}
	return b
}

// bound is one past the largest bucket the mapping can name.
func (m mapping) bound() uint64 { return m.n << 1 }

// bucketPageOf returns the file page holding bucket b's head. Base
// buckets sit at their create-time offsets; later buckets resolve
// through the directory snapshot.
func (db *DB) bucketPageOf(b uint64) uint64 {
	if b < db.baseBuckets {
		return 1 + b
	}
	d := db.dir.Load()
	return d.pages[b-db.baseBuckets]
}

// stripeOf returns the lock stripe owning bucket b's chain.
func (db *DB) stripeOf(b uint64) *dbStripe {
	return &db.stripes[db.stripeIndex(b)]
}

func (db *DB) stripeIndex(b uint64) uint64 { return (b >> stripeShift) & db.stripeMask }

// rlockBucket read-locks the stripe owning fp's bucket, rechecking the
// mapping after acquiring the lock: a split that moved fp's bucket while
// we were blocked is detected and the lock retaken on the new stripe.
// The mapping is stable while the stripe lock is held, because a split
// changing it must write-lock this same stripe.
func (db *DB) rlockBucket(h uint64) (uint64, *dbStripe) {
	for {
		b := db.bucketOfHash(h)
		st := db.stripeOf(b)
		st.mu.RLock()
		if db.bucketOfHash(h) == b {
			return b, st
		}
		st.mu.RUnlock()
	}
}

// lockBucket is rlockBucket's write-lock twin.
func (db *DB) lockBucket(h uint64) (uint64, *dbStripe) {
	for {
		b := db.bucketOfHash(h)
		st := db.stripeOf(b)
		st.mu.Lock()
		if db.bucketOfHash(h) == b {
			return b, st
		}
		st.mu.Unlock()
	}
}

// ---- page allocation and the persistent free list ----
//
// Freed pages (emptied overflow pages unlinked by Delete, split, or
// Compact) chain through their pageNext field, rooted at freeHead. The
// chain is maintained eagerly on disk: freeing writes the page as empty
// with next = old head, so the on-disk chain rooted at the in-memory
// head is intact at every instant and a clean header commit simply
// records the head. Recovery never trusts the chain after a crash — it
// rebuilds the free list from the unreferenced empty pages it finds.

// allocRun claims n page numbers and appends them to dst, draining the
// free list before extending the file. Free-list pops cost one page read
// each (to follow the chain); extension is a counter bump, with the actual
// growth happening when the new page is written. Callers must have marked
// the file dirty.
func (db *DB) allocRun(dst []uint64, n int) ([]uint64, error) {
	db.allocMu.Lock()
	defer db.allocMu.Unlock()
	pages := slices.Grow(dst, n)
	want := len(dst) + n
	if db.freeHead != 0 {
		buf := getPage()
		defer putPage(buf)
		for len(pages) < want && db.freeHead != 0 {
			p := db.freeHead
			if err := db.readPage(p, buf); err != nil {
				return nil, err
			}
			db.freeHead = pageNext(buf)
			db.freeCount--
			pages = append(pages, p)
		}
	}
	if rest := want - len(pages); rest > 0 {
		base := db.pages.Load()
		db.pages.Add(uint64(rest))
		for i := 0; i < rest; i++ {
			pages = append(pages, base+uint64(i))
		}
	}
	return pages, nil
}

// freePage pushes p onto the free list, overwriting it as an empty page
// whose next field links the previous head. The page's prior contents
// must already be dead (unlinked from every chain): the write both
// erases them and publishes the chain link in one page write.
func (db *DB) freePage(p uint64) error {
	buf := getPage()
	defer putPage(buf)
	clear(buf)
	db.allocMu.Lock()
	defer db.allocMu.Unlock()
	setPageNext(buf, db.freeHead)
	if err := db.writePage(p, buf); err != nil {
		return err
	}
	db.freeHead = p
	db.freeCount++
	return nil
}

// ---- directory maintenance ----

// dirAppend records newPage as the bucket page of the next directory
// bucket, writing the directory page that holds the slot (allocating and
// linking a fresh directory page when the last one is full). Caller
// holds splitMu; the in-memory snapshot is NOT published here — the
// caller publishes dir and split state together once the split's data
// movement is complete, so a failed split leaves only a stale on-disk
// slot that the next split overwrites and recovery ignores.
//
// Every page it writes is built from the in-memory mirror, which holds
// each committed slot the page does, so a split reads no directory page.
func (db *DB) dirAppend(newPage uint64) error {
	d := db.dir.Load()
	idx := d.n // committed entries; on-disk counts beyond this are stale
	slot := idx % dirSlotsPerPage
	pageIdx := idx / dirSlotsPerPage
	buf := getPage()
	defer putPage(buf)
	if slot == 0 && pageIdx == len(db.dirPages) {
		// The last directory page is full (or none exists): start a new
		// one, then link it — new page before the pointer to it, so a
		// crash strands an unreferenced page, never a dangling link.
		np, err := db.allocRun(nil, 1)
		if err != nil {
			return err
		}
		db.fillDirPage(buf, d, pageIdx, newPage)
		if err := db.writePage(np[0], buf); err != nil {
			return err
		}
		if pageIdx == 0 {
			db.allocMu.Lock()
			db.dirHead = np[0]
			db.allocMu.Unlock()
		} else {
			db.fillDirPage(buf, d, pageIdx-1, 0)
			setPageNext(buf, np[0])
			if err := db.writePage(db.dirPages[pageIdx-1], buf); err != nil {
				return err
			}
		}
		db.dirPages = append(db.dirPages, np[0])
		return nil
	}
	db.fillDirPage(buf, d, pageIdx, newPage)
	return db.writePage(db.dirPages[pageIdx], buf)
}

// fillDirPage lays out directory page i as the mirror d holds it: its
// committed slots, then appended in the slot after them unless it is 0, and
// the link to the directory page after it, if there is one yet.
func (db *DB) fillDirPage(buf []byte, d *bucketDir, i int, appended uint64) {
	clear(buf)
	lo := i * dirSlotsPerPage
	committed := d.pages[lo:min(d.n, lo+dirSlotsPerPage)]
	for s, p := range committed {
		setDirEntryAt(buf, s, p)
	}
	if appended != 0 {
		setDirEntryAt(buf, len(committed), appended)
	}
	if i+1 < len(db.dirPages) {
		setPageNext(buf, db.dirPages[i+1])
	}
}

// publishDirEntry extends the in-memory directory snapshot with
// newPage. Slot idx d.n is written before the new header is published,
// and holders of the old header never index past their n, so readers
// race-free against the append. Caller holds splitMu.
func (db *DB) publishDirEntry(newPage uint64) {
	d := db.dir.Load()
	pages := d.pages
	if d.n == len(pages) {
		grown := make([]uint64, max(16, len(pages)*2))
		copy(grown, pages)
		pages = grown
	}
	pages[d.n] = newPage
	db.dir.Store(&bucketDir{pages: pages, n: d.n + 1})
}

// ---- split triggering and execution ----

// chainSplitTrigger is the observed chain length (pages) at which the
// write path requests a split regardless of the split schedule: a
// chain this deep means lookups in that region pay multiple device
// reads.
const chainSplitTrigger = 3

// overloaded reports whether the table would owe a split with extra more
// entries than it holds now: whether the split pointer trails
// base<<level × (fill − sweepFrom) / (sweepTo − sweepFrom), fill being the
// unsplit buckets' mean, entries / (base<<level).
func (db *DB) overloaded(extra int) bool {
	level, split := unpackState(db.state.Load())
	e := float64(db.entries.Load() + uint64(extra))
	return e >= float64(db.levelBuckets(level))*db.sweepFrom+float64(split)*(db.sweepTo-db.sweepFrom)
}

// maybeSplit runs pending incremental splits if the live telemetry says
// the table is too small for what it holds plus the extra entries the
// caller is about to add: the split schedule would owe one (overloaded), or
// a write-path chain walk observed a chain of chainSplitTrigger+ pages.
// Splitting ahead of a batch is what keeps a wave into a young table from
// building overflow chains only to split them a millisecond later. At most
// one caller splits at a time (TryLock); everyone else returns immediately,
// so the trigger never convoys the write path. Callers must not hold stripe
// locks.
func (db *DB) maybeSplit(extra int) error {
	if db.holdSplits {
		return nil
	}
	if !db.wantSplit.Load() && !db.overloaded(extra) {
		return nil
	}
	if !db.splitMu.TryLock() {
		return nil
	}
	defer db.splitMu.Unlock()
	if db.wantSplit.Swap(false) {
		if err := db.splitOne(); err != nil {
			return err
		}
	}
	for db.overloaded(extra) {
		if err := db.splitOne(); err != nil {
			return err
		}
	}
	return nil
}

// splitScratch is the staging one split works in: the source chain's pages
// (buffers its own, as a chain walk's are), the entries moving out, the page
// numbers of the new bucket's chain and of the source pages that emptied.
type splitScratch struct {
	src     chainScratch
	moved   []Pair
	nos     []uint64
	dropped []uint64
}

// splitOne performs one linear-hashing split: the bucket at the split
// pointer is rehashed one level deeper and the entries whose hash gained
// the new top bit move to a freshly allocated bucket. Caller holds
// splitMu.
//
// The write order is the crash-safety argument (recovery rolls the split
// back whenever the header's committed state predates it):
//
//  1. the new bucket's pages, deepest first — moved entries now exist
//     twice (old chain and new), which is safe: the new bucket is
//     unreachable until the state publishes, and recovery salvages it
//     back through idempotent Puts;
//  2. the directory slot naming the new bucket page;
//  3. the source chain rewritten in place, moved entries removed —
//     page-local edits only, so no entry ever depends on another
//     source-page write landing;
//  4. emptied source overflow pages unlinked and freed;
//  5. the (level, split) state and directory snapshot published in
//     memory. The header catches up at the next clean commit.
func (db *DB) splitOne() error {
	level, split := unpackState(db.state.Load())
	n := db.levelBuckets(level)
	s, t := split, split+n
	// Lock the two affected stripes in index order (one lock if they
	// collide). Mutators of either bucket are quiesced for the split.
	si, ti := db.stripeIndex(s), db.stripeIndex(t)
	lo, hi := min(si, ti), max(si, ti)
	db.stripes[lo].mu.Lock()
	if hi != lo {
		db.stripes[hi].mu.Lock()
	}
	defer func() {
		if hi != lo {
			db.stripes[hi].mu.Unlock()
		}
		db.stripes[lo].mu.Unlock()
	}()
	if db.closed {
		return ErrClosed
	}
	if err := db.markDirty(); err != nil {
		return err
	}

	// Read the source chain into the split scratch: growth is the normal
	// state of a table, so a split keeps its staging from one to the next
	// (splitMu guards it) instead of allocating it.
	sc := &db.split
	if cap(sc.src.chain) > 8 { // as putChainScratch: one long chain must not pin its pages
		sc.src = chainScratch{}
	}
	sc.src.chain = sc.src.chain[:0]
	for p := db.bucketPageOf(s); p != 0; {
		cp := sc.src.addPage(p)
		if err := db.readPage(p, cp.buf); err != nil {
			return err
		}
		p = pageNext(cp.buf)
	}
	chain := sc.src.chain

	// Partition: entries whose hash gains the new top bit move to t.
	// The rewrite is page-local — movers are packed out of each source
	// page independently — so a torn source write never loses an entry
	// another page's write was carrying.
	moved := sc.moved[:0]
	for i := range chain {
		buf := chain[i].buf
		w := 0
		cnt := pageCount(buf)
		for j := 0; j < cnt; j++ {
			efp, v := entryAt(buf, j)
			if efp.Prefix64()%(n<<1) == t {
				moved = append(moved, Pair{FP: efp, Val: v})
				chain[i].dirty = true
				continue
			}
			if w != j {
				setEntryAt(buf, w, efp, v)
			}
			w++
		}
		if w != cnt {
			setPageCount(buf, w)
		}
	}
	sc.moved = moved

	// 1. Build and write the new bucket's chain, deepest page first.
	tPages := max(1, (len(moved)+SlotsPerPage-1)/SlotsPerPage)
	tNos, err := db.allocRun(sc.nos[:0], tPages)
	if err != nil {
		return err
	}
	sc.nos = tNos
	tBuf := getPage()
	defer putPage(tBuf)
	for i := tPages - 1; i >= 0; i-- {
		clear(tBuf)
		lo := i * SlotsPerPage
		hi := min(len(moved), lo+SlotsPerPage)
		for j := lo; j < hi; j++ {
			setEntryAt(tBuf, j-lo, moved[j].FP, moved[j].Val)
		}
		setPageCount(tBuf, hi-lo)
		if i+1 < tPages {
			setPageNext(tBuf, tNos[i+1])
		}
		if err := db.writePage(tNos[i], tBuf); err != nil {
			return err
		}
	}

	// 2. Record the new bucket in the directory.
	if err := db.dirAppend(tNos[0]); err != nil {
		return err
	}

	// 3. Rewrite the source chain in place, deepest page first. From here
	// on the split must roll forward: a failed page write leaves at worst
	// a stale copy of a moved entry in the source chain, unreachable once
	// the state publishes (Compact and recovery drop such strays), whereas
	// aborting now would lose the entries already packed out. The new
	// chain skips overflow pages that emptied; surviving pages keep their
	// file positions and are relinked around the gaps.
	var firstErr error
	dropped := sc.dropped[:0]
	next := uint64(0) // the surviving page behind the one in hand
	for i := len(chain) - 1; i >= 0; i-- {
		cp := &chain[i]
		if i > 0 && pageCount(cp.buf) == 0 {
			dropped = append(dropped, cp.no)
			continue
		}
		if pageNext(cp.buf) != next {
			setPageNext(cp.buf, next)
			cp.dirty = true
		}
		next = cp.no
		if !cp.dirty {
			continue
		}
		if err := db.writePage(cp.no, cp.buf); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	sc.dropped = dropped
	// 4. Freed source overflow pages go to the free list.
	for _, no := range dropped {
		if err := db.freePage(no); err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// 5. Publish. Readers blocked on the stripe locks recheck the
	// mapping and route to the new bucket from here on.
	db.publishDirEntry(tNos[0])
	if split+1 == n {
		db.state.Store(packState(level+1, 0))
	} else {
		db.state.Store(packState(level, split+1))
	}
	db.splits.Add(1)
	db.overflowPages.Add(uint64(tPages-1) - uint64(len(dropped)))
	if firstErr != nil {
		return fmt.Errorf("hashdb: %s: split bucket %d: %w", db.path, s, firstErr)
	}
	return nil
}

// CompactStats reports what a compaction pass reclaimed.
type CompactStats struct {
	// ChainsPacked counts bucket chains whose pages were rewritten.
	ChainsPacked uint64
	// PagesFreed counts overflow pages unlinked into the free list.
	PagesFreed uint64
	// EntriesMoved counts entries repacked into earlier chain pages.
	EntriesMoved uint64
	// StraysDropped counts stale entries discarded because they no
	// longer hash to the chain holding them (leftovers of a
	// rolled-forward split).
	StraysDropped uint64
}

// Compact walks every bucket chain, repacking entries into the fewest
// pages, dropping stale entries that no longer hash to the chain, and
// unlinking emptied overflow pages into the persistent free list. It
// locks one bucket's stripe at a time, so writers make progress
// throughout the pass; the pass tolerates concurrent splits (buckets
// created after it started are already dense).
//
// Crash safety mirrors the split: packed pages are written before the
// pages they drained are unlinked and freed, so entries exist in some
// reachable page at every instant; the transient duplicates a crash can
// leave in one chain are removed by recovery's chain dedupe.
func (db *DB) Compact() (CompactStats, error) {
	var cs CompactStats
	db.splitMu.Lock() // serialize against splits and other compactions
	defer db.splitMu.Unlock()
	for b := uint64(0); b < db.numBuckets(); b++ {
		if err := db.compactBucket(b, &cs); err != nil {
			return cs, err
		}
	}
	return cs, nil
}

// compactBucket repacks one bucket chain under its stripe lock.
func (db *DB) compactBucket(b uint64, cs *CompactStats) error {
	st := db.stripeOf(b)
	st.mu.Lock()
	defer st.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	var chain []chainPage
	defer func() {
		for i := range chain {
			putPage(chain[i].buf)
		}
	}()
	for p := db.bucketPageOf(b); p != 0; {
		buf := getPage()
		if err := db.readPage(p, buf); err != nil {
			putPage(buf)
			return err
		}
		chain = append(chain, chainPage{no: p, buf: buf})
		p = pageNext(buf)
	}
	// Collect the chain's live entries, dropping strays.
	var live []Pair
	strays := uint64(0)
	for i := range chain {
		cnt := pageCount(chain[i].buf)
		for j := 0; j < cnt; j++ {
			efp, v := entryAt(chain[i].buf, j)
			if db.bucketOfHash(efp.Prefix64()) != b {
				strays++
				continue
			}
			live = append(live, Pair{FP: efp, Val: v})
		}
	}
	needPages := 1
	if len(live) > SlotsPerPage {
		needPages = (len(live) + SlotsPerPage - 1) / SlotsPerPage
	}
	if strays == 0 && needPages == len(chain) {
		return nil // already dense
	}
	if err := db.markDirty(); err != nil {
		return err
	}

	// Repack into the chain's first needPages pages, then unlink and
	// free the rest. Entries only ever move toward the head, so packed
	// pages are written head-first: whatever a page held before its
	// rewrite is by then on the pages already written or stays on it, and
	// what the pages behind it held is still there, twice for a moment
	// (deepest-first is for pages nothing links to yet; here a crash
	// between two writes would lose the middle of the chain). The last
	// packed page cuts the link to the tail, which keeps its now duplicate
	// contents until freePage erases them.
	movedBefore := 0
	for i := 0; i < needPages; i++ {
		movedBefore += pageCount(chain[i].buf)
	}
	for i := 0; i < needPages; i++ {
		buf := chain[i].buf
		clear(buf)
		lo := i * SlotsPerPage
		hi := min(len(live), lo+SlotsPerPage)
		for j := lo; j < hi; j++ {
			setEntryAt(buf, j-lo, live[j].FP, live[j].Val)
		}
		setPageCount(buf, hi-lo)
		if i+1 < needPages {
			setPageNext(buf, chain[i+1].no)
		}
		if err := db.writePage(chain[i].no, buf); err != nil {
			return err
		}
	}
	for i := needPages; i < len(chain); i++ {
		if err := db.freePage(chain[i].no); err != nil {
			return err
		}
		cs.PagesFreed++
	}
	db.overflowPages.Add(^uint64(len(chain) - needPages - 1))
	cs.ChainsPacked++
	cs.StraysDropped += strays
	if extra := len(live) - movedBefore + int(strays); extra > 0 {
		cs.EntriesMoved += uint64(extra)
	}
	if strays > 0 {
		db.entries.Add(^(uint64(strays) - 1))
	}
	return nil
}
