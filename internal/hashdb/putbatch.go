package hashdb

// This file implements the batched write path: the write-side twin of the
// coalesced read path in batch.go. A PutBatch groups its pairs by bucket
// page and performs one read-modify-write per bucket chain — every chain
// page is read at most once and written at most once no matter how many of
// the batch's entries land on it — with chains processed concurrently up
// to parallel.IODepth, or one at a time with a yield every maxChunkRuns
// chains when the caller's ctx is parallel.Background (a destage wave nobody
// waits for) and page I/O does not block. This is what turns the small
// random SSD writes that dominate flash-backed stores into a handful of
// large page writes.

import (
	"context"
	"sync/atomic"

	"shhc/internal/fingerprint"
)

// Pair couples a fingerprint with the value to store for it.
type Pair struct {
	FP  fingerprint.Fingerprint
	Val Value
}

// PutBatch stores every pair with one read-modify-write per distinct
// bucket chain. Chains run concurrently up to parallel.IODepth, so modeled
// (Sleep-mode) devices overlap page I/O the way real flash channels do; a
// parallel.Background ctx trades that overlap for yielding while I/O does
// not block (see package parallel).
//
// The bucket grouping is computed without locks, so a concurrent linear-
// hashing split can remap some pairs between grouping and the stripe
// lock; putChain detects those under the lock and reports them stale, and
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
		g.group(len(pairs), pending, func(i int) uint64 { return db.bucketOf(pairs[i].FP) })
		err := g.eachRun(ctx, func(cs *chainScratch, run []keyed) error {
			n, err := db.putChain(ctx, cs, run, pairs, created, &stale)
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

// putChain applies the run's pairs to one bucket chain as a single
// read-modify-write under the owning stripe's lock: the chain is read once
// into the scratch's page buffers, all updates and appends are applied in
// memory (growing the chain with placeholder pages when it fills), overflow
// allocations claim their page numbers in one allocRun call (draining the
// free list before extending the file), and only then are the dirty pages
// written — new overflow pages before the pages that link to them, so an
// interrupted batch strands orphan pages rather than dangling pointers.
// Pairs a concurrent split remapped away from the run's bucket since the
// caller grouped them are reported in stale. Returns the number of page
// writes issued.
func (db *DB) putChain(ctx context.Context, cs *chainScratch, run []keyed, pairs []Pair, created []bool, stale *staleList) (writes int, err error) {
	bucket := db.bucketOf(pairs[run[0].idx].FP)
	st := db.stripeOf(bucket)
	st.mu.Lock()
	defer st.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	live := db.live(cs, bucket, run, func(i int32) fingerprint.Fingerprint { return pairs[i].FP }, stale)
	if len(live) == 0 {
		return 0, nil
	}
	if err := db.markDirty(); err != nil {
		return 0, err
	}

	// Read the chain, applying in-place updates as pages arrive and
	// stopping early once every fingerprint is found — a pure-update run
	// pays only the pages up to its last hit, like the old per-key Put did.
	// A fingerprint appears at most once per chain, so a found one cannot
	// also live on an unread page. Appends need the whole chain (free-slot
	// search + tail link), so reading continues while any is unresolved.
	fpOf := func(i int32) fingerprint.Fingerprint { return pairs[i].FP }
	unresolved := cs.index(live, fpOf)
	cs.chain = cs.chain[:0]
	done := ctx.Done()
	for p := db.bucketPageOf(bucket); p != 0 && unresolved > 0; {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		cp := cs.addPage(p)
		buf := cp.buf
		if err := db.readPage(p, buf); err != nil {
			return 0, err
		}
		// An entry the run holds takes its last pair's value.
		if hits := cs.scan(buf, unresolved, fpOf); len(hits) > 0 {
			for _, h := range hits {
				last := pairs[cs.slots[h.slot].last]
				setEntryAt(buf, int(h.entry), last.FP, last.Val)
			}
			cp.dirty = true
			unresolved -= len(hits)
		}
		p = pageNext(buf)
	}
	db.observeChain(len(cs.chain))

	// The fingerprints not found are on no page as read — the walk above
	// probed every entry — so each is one append, in order of first
	// appearance, into the first page with a free slot. A full chain grows
	// by a placeholder page (no=0).
	var createdCount, newPages int
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
		for free < len(cs.chain) && pageCount(cs.chain[free].buf) >= SlotsPerPage {
			free++
		}
		if free == len(cs.chain) {
			clear(cs.addPage(0).buf)
			newPages++
		}
		cp := &cs.chain[free]
		n := pageCount(cp.buf)
		setEntryAt(cp.buf, n, pairs[idx].FP, pairs[k.last].Val)
		setPageCount(cp.buf, n+1)
		cp.dirty = true
		created[idx] = true
		createdCount++
	}
	chain := cs.chain

	// One allocRun call claims file positions for every new overflow
	// page, reusing freed pages before growing the file.
	if newPages > 0 {
		nos, err := db.allocRun(nil, newPages)
		if err != nil {
			return 0, err
		}
		k := 0
		for i := range chain {
			if chain[i].no == 0 {
				chain[i].no = nos[k]
				k++
			}
		}
		for i := 0; i+1 < len(chain); i++ {
			if pageNext(chain[i].buf) != chain[i+1].no {
				setPageNext(chain[i].buf, chain[i+1].no)
				chain[i].dirty = true
			}
		}
	}

	for i := len(chain) - 1; i >= 0; i-- {
		if !chain[i].dirty {
			continue
		}
		if err := db.writePage(chain[i].no, chain[i].buf); err != nil {
			return writes, err
		}
		writes++
	}
	db.entries.Add(uint64(createdCount))
	db.overflowPages.Add(uint64(newPages))
	return writes, nil
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
	g.group(len(pairs), nil, func(i int) uint64 { return pairs[i].FP.Bucket64() & (memShards - 1) })
	done := ctx.Done()
	err := g.eachRun(ctx, func(_ *chainScratch, run []keyed) error {
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
