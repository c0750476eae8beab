package hashdb

// This file implements the batched write path: the write-side twin of the
// coalesced read path in batch.go. A PutBatch groups its pairs by bucket in
// ascending order and the buckets by stripe block. Each unit — the chains of
// one block, under one hold of its stripe lock — performs one
// read-modify-write per bucket chain, every chain page read at most once and
// written at most once no matter how many of the batch's entries land on it,
// and its head pages, adjacent in the file, are read and written with one
// call per run of consecutive pages. Units run concurrently up to
// parallel.IODepth, or one chunk at a time with a yield between chunks when
// the caller's ctx is parallel.Background (a destage wave nobody waits for)
// and page I/O does not block. This is what turns the small random SSD
// writes that dominate flash-backed stores into a handful of large ones.

import (
	"context"
	"sync/atomic"
	"time"

	"shhc/internal/fingerprint"
)

// Pair couples a fingerprint with the value to store for it.
type Pair struct {
	FP  fingerprint.Fingerprint
	Val Value
}

// PutBatch stores every pair with one read-modify-write per distinct
// bucket chain. Units run concurrently up to parallel.IODepth, so modeled
// (Sleep-mode) devices overlap page I/O the way real flash channels do; a
// parallel.Background ctx trades that overlap for yielding while I/O does
// not block (see package parallel).
//
// The bucket grouping is computed without locks, so a concurrent linear-
// hashing split can remap some pairs between grouping and the stripe
// lock; putUnit detects those under the lock and reports them stale, and
// the batch regroups and retries them (see staleList).
func (db *DB) PutBatch(ctx context.Context, pairs []Pair) ([]bool, int, error) {
	created := make([]bool, len(pairs))
	if len(pairs) == 0 {
		return created, 0, nil
	}
	// Grow for the whole batch before grouping it: the chains below then
	// find room on their bucket pages, and the grouping is computed against
	// the mapping the splits leave behind.
	if err := db.maybeSplit(len(pairs)); err != nil {
		return nil, 0, err
	}
	g := getGroupScratch()
	defer putGroupScratch(g)
	var (
		pages   atomic.Int64
		stale   staleList
		pending []int32 // nil: everything
	)
	for {
		m := db.mapping()
		g.group(len(pairs), pending, m.bound(), func(i int) uint64 { return m.bucket(pairs[i].FP.Prefix64()) })
		err := g.eachUnit(ctx, stripeShift, func(cs *chainScratch, u unit) error {
			n, err := db.putUnit(ctx, cs, u, pairs, created, &stale)
			pages.Add(int64(n))
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		if pending = stale.take(); pending == nil {
			break
		}
		db.staleRetries.Add(1)
	}
	// What the walks above asked for (a chain of chainSplitTrigger pages),
	// and whatever a concurrent batch's split kept this one from growing.
	if err := db.maybeSplit(0); err != nil {
		return nil, 0, err
	}
	return created, int(pages.Load()), nil
}

// chainPage is one page of a bucket chain held in memory during a batched
// read-modify-write. no == 0 marks a fresh overflow page whose file
// position has not been allocated yet.
type chainPage struct {
	no    uint64
	buf   []byte
	dirty bool
}

// putUnit applies the unit's pairs to its chains under the stripe's lock.
// stageUnit reads the chains' head pages — a cancelled ctx stops it there,
// before anything changes — and from then on the unit runs to its end: each
// chain is read-modified in memory and its pages below the head written
// (putChain), and then the dirty heads, sealed in the slab, are written with
// one call per run of consecutive pages. A chain's new overflow pages land
// before the page that links them, and no head before the pages of its
// chain, so an interrupted batch strands orphan pages rather than dangling
// pointers. Returns the number of page writes issued.
func (db *DB) putUnit(ctx context.Context, cs *chainScratch, u unit, pairs []Pair, created []bool, stale *staleList) (writes int, err error) {
	st := db.stripeOf(u.items[u.starts[0]].key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	fpOf := func(i int32) fingerprint.Fingerprint { return pairs[i].FP }
	if err := db.stageUnit(ctx, cs, u, fpOf, stale); err != nil || len(cs.chains) == 0 {
		return 0, err
	}
	if !db.dirty.Load() { // the mark's fsync is no chain I/O: the lane's probe leaves it out
		start := time.Now()
		err := db.markDirty()
		cs.untimed += time.Since(start)
		if err != nil {
			return 0, err
		}
	}
	var createdCount, newPages int
	for c := range cs.chains {
		w, made, grown, err := db.putChain(cs, c, pairs, created)
		writes += w
		if err != nil {
			return writes, err
		}
		createdCount += made
		newPages += grown
	}
	for lo := 0; lo < len(cs.chains); {
		if !cs.chains[lo].dirty {
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(cs.chains) && cs.chains[hi].dirty && cs.chains[hi].head == cs.chains[hi-1].head+1 {
			hi++
		}
		if err := db.writePages(cs.chains[lo].head, cs.slab[lo*PageSize:hi*PageSize]); err != nil {
			return writes, err
		}
		writes += hi - lo
		lo = hi
	}
	db.entries.Add(uint64(createdCount))
	db.overflowPages.Add(uint64(newPages))
	return writes, nil
}

// page is page i of the chain in hand: its head in the slab, then the
// overflow pages below it.
func (cs *chainScratch) page(i int) *chainPage {
	if i == 0 {
		return &cs.top
	}
	return &cs.chain[i-1]
}

// putChain applies the pairs of the unit's chain c to it in memory — the
// chain is read once, from its head in the slab down, all updates and appends
// are applied (growing the chain with placeholder pages when it fills), and
// overflow allocations claim their page numbers in one allocRun call
// (draining the free list before extending the file) — and writes its dirty
// pages below the head, deepest first. The head is left to putUnit, marked
// in the chain's dirty flag. Returns the pages written, the entries created
// and the overflow pages added.
func (db *DB) putChain(cs *chainScratch, c int, pairs []Pair, created []bool) (writes, createdCount, newPages int, err error) {
	ch := &cs.chains[c]
	live := cs.live[ch.lo:ch.hi]
	cs.top = chainPage{no: ch.head, buf: cs.head(c)}
	cs.chain = cs.chain[:0]

	// Walk the chain, applying in-place updates as pages arrive and
	// stopping early once every fingerprint is found — a pure-update run
	// pays only the pages up to its last hit, like the old per-key Put did.
	// A fingerprint appears at most once per chain, so a found one cannot
	// also live on an unread page. Appends need the whole chain (free-slot
	// search + tail link), so reading continues while any is unresolved.
	fpOf := func(i int32) fingerprint.Fingerprint { return pairs[i].FP }
	unresolved := cs.index(live, fpOf)
	for cp := &cs.top; ; {
		// An entry the run holds takes its last pair's value.
		if hits := cs.scan(cp.buf, unresolved, fpOf); len(hits) > 0 {
			for _, h := range hits {
				last := pairs[cs.slots[h.slot].last]
				setEntryAt(cp.buf, int(h.entry), last.FP, last.Val)
			}
			cp.dirty = true
			unresolved -= len(hits)
		}
		p := pageNext(cp.buf)
		if p == 0 || unresolved == 0 {
			break
		}
		cp = cs.addPage(p)
		if err := db.readPage(p, cp.buf); err != nil {
			return 0, 0, 0, err
		}
	}
	pages := 1 + len(cs.chain)
	db.observeChain(pages)

	// The fingerprints not found are on no page as read — the walk above
	// probed every entry — so each is one append, in order of first
	// appearance, into the first page with a free slot. A full chain grows
	// by a placeholder page (no=0).
	free := 0 // the chain's pages before free are full
	for _, idx := range live {
		if unresolved == 0 {
			break
		}
		k := cs.slot(pairs[idx].FP, fpOf)
		if k.found || k.first != idx {
			continue
		}
		k.found = true
		unresolved--
		for free < pages && pageCount(cs.page(free).buf) >= SlotsPerPage {
			free++
		}
		if free == pages {
			clear(cs.addPage(0).buf)
			pages++
			newPages++
		}
		cp := cs.page(free)
		n := pageCount(cp.buf)
		setEntryAt(cp.buf, n, pairs[idx].FP, pairs[k.last].Val)
		setPageCount(cp.buf, n+1)
		cp.dirty = true
		created[idx] = true
		createdCount++
	}

	// One allocRun call claims file positions for every new overflow
	// page, reusing freed pages before growing the file.
	if newPages > 0 {
		nos, err := db.allocRun(nil, newPages)
		if err != nil {
			return 0, 0, 0, err
		}
		k := 0
		for i := range cs.chain {
			if cs.chain[i].no == 0 {
				cs.chain[i].no = nos[k]
				k++
			}
		}
		for i := 0; i+1 < pages; i++ {
			if cp, next := cs.page(i), cs.page(i+1).no; pageNext(cp.buf) != next {
				setPageNext(cp.buf, next)
				cp.dirty = true
			}
		}
	}

	for i := len(cs.chain) - 1; i >= 0; i-- {
		if !cs.chain[i].dirty {
			continue
		}
		if err := db.writePage(cs.chain[i].no, cs.chain[i].buf); err != nil {
			return writes, 0, 0, err
		}
		writes++
	}
	ch.dirty = cs.top.dirty
	return writes, createdCount, newPages, nil
}

// PutBatch stores every pair. The in-RAM store has no pages to coalesce —
// pagesWritten is one per entry — but writes still overlap across shard
// groups up to parallel.IODepth and each shard lock is taken once per
// group instead of once per pair, mirroring GetBatch. Cancelling ctx stops
// new device writes between entries.
func (s *MemStore) PutBatch(ctx context.Context, pairs []Pair) ([]bool, int, error) {
	created := make([]bool, len(pairs))
	if len(pairs) == 0 {
		return created, 0, nil
	}
	g := getGroupScratch()
	defer putGroupScratch(g)
	g.group(len(pairs), nil, memShards, func(i int) uint64 { return pairs[i].FP.Bucket64() & (memShards - 1) })
	done := ctx.Done()
	err := g.eachUnit(ctx, 0, func(_ *chainScratch, u unit) error {
		run := u.run(0)
		sh := s.shard(pairs[run[0].idx].FP)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		for _, it := range run {
			if done != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			s.dev.Write(entrySize)
			_, existed := sh.m[pairs[it.idx].FP]
			sh.m[pairs[it.idx].FP] = pairs[it.idx].Val
			created[it.idx] = !existed
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return created, len(pairs), nil
}
