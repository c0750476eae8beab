package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/lru"
)

// This file implements the node's lookup path, the one walk of Figure 4: a
// two-phase batch pipeline. A single fingerprint is a batch of one.
//
// Phase 1 (the RAM pass) runs the Figure 4 RAM tiers — LRU cache, Bloom
// filter — under the fingerprint's stripe lock. Phase 2 (the SSD phase)
// releases the stripe lock before touching the store, so one SSD
// round-trip never stalls every other fingerprint on the stripe.
//
// Per-fingerprint serialization, hence exactly-once inserts, is therefore
// not the stripe lock's doing but a per-stripe in-flight table's: before
// its SSD phase starts, an operation registers its fingerprint; any later
// operation on the same fingerprint finds the entry and waits for the
// flight to land instead of issuing a second probe or a second insert.
// The invariant:
//
//	a fingerprint's RAM walk runs under its stripe lock; its SSD phase
//	is serialized by the stripe's in-flight table.
//
// Cancellation. The SSD phase runs in the caller, under the caller's
// context, and there is one rule:
//
//   - A call whose context ends stops issuing device operations (one already
//     issued completes; it is never revoked), fails the flights it owns with
//     the context's error and returns it. Nothing is handed off.
//   - A rider never adopts a flight's context error — it was not the rider's
//     context: it re-runs the walk and claims the fingerprint itself, so an
//     abandoned flight never poisons later operations.
//   - A rider whose own context ends stops waiting and returns ctx.Err()
//     without touching the flight table.
//
// Lock ordering: an operation holds at most one stripe lock at a time and
// never sleeps on a flight while holding it. Flight completion re-acquires
// the stripe lock, installs the result into the cache, updates the stripe
// counters, removes the in-flight entry, and only then wakes waiters — so a
// woken waiter re-running its RAM walk finds the installed cache entry.
//
// Flight records. A batch allocates one slab of flights and one done channel
// for all the SSD phases it owns: the slab is an ordinary garbage-collected
// slice, never pooled, because riders from other operations keep pointers
// into it for as long as they please — a late rider reads a landed flight,
// never a recycled one. The shared done closes once, after the batch has
// completed (or failed) every flight of the slab under the stripe locks; a
// rider therefore waits for the whole wave it joined, which is one
// coalesced SSD phase. Later items of the same batch find the batch's own
// flight in the in-flight table (its done is the batch's) and resolve after
// it as its duplicates.

// flight is one in-progress SSD phase for a fingerprint: a probe,
// optionally followed by the insert the probe's miss calls for. Outcome
// fields are written by the owning batch before done is closed and read by
// waiters only after <-done.
type flight struct {
	done chan struct{}
	// exists reports whether the fingerprint is present in the index when
	// the flight lands — true both for a probe hit and after a successful
	// insert, so a waiter always reads its answer as "duplicate, with
	// val". While a batch's wave is in the air it holds the probe's answer.
	exists bool
	val    Value
	err    error

	// interest counts the parties that have awaited the flight: its owner
	// plus every rider that joined. Guarded by the owning stripe's mutex.
	// Nothing in the pipeline acts on it — no flight is handed off or aborted
	// on its riders' account; it is how a test knows a rider has joined.
	interest int

	// item is the input index of the batch item that owns the flight, and
	// direct marks a flight with no probe, just the put: a Bloom-negative
	// insert, or a held hit.
	item   int32
	direct bool
	// held is set on a durable batch's hit on an entry only RAM holds —
	// dirty in a write-back cache, or in its destage buffer — and names the
	// tier that found it. The flight writes that value through; exists and
	// val hold it from the start.
	held Source
}

// batchMode is what a batch does with a fingerprint it does not find.
type batchMode uint8

const (
	// modeLookup only answers.
	modeLookup batchMode = iota
	// modeInsert inserts it; a write-back node acks the insert from RAM.
	modeInsert
	// modeDurable inserts it durable on return (ApplyRepair): a write-back
	// node takes the write-through branch for the batch, and also writes
	// through every hit it holds only in RAM.
	modeDurable
)

// isCtxErr reports whether err is a context cancellation or deadline
// error — the class of flight failures a waiting rider must not adopt.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// completeLocked lands f, whose device work succeeded, for its owner: it
// counts the lookup under the tier that answered it, installs the entry in
// the cache (and the filter), leaves in f what riders will read — after an
// insert the fingerprint exists, with val — and returns the owner's answer.
// On entry f.exists and f.val hold the probe's answer, unless f is direct.
// Caller holds s.mu, and retires the flight before releasing it.
func (n *Node) completeLocked(s *nodeStripe, f *flight, fp fingerprint.Fingerprint, val Value, mode batchMode) LookupResult {
	s.lookups++
	switch {
	case f.held != 0:
		// Written through; the entry stays dirty for its own wave, which may
		// hold an older capture that must not land last on a clean entry.
		if f.held == SourceCache {
			s.cacheHits++
		} else {
			s.destageHits++
			s.storeHits++
		}
		return LookupResult{Exists: true, Value: f.val, Source: f.held}
	case f.direct:
		s.bloomShort++
	case f.exists:
		s.storeHits++
		if n.cache != nil {
			n.cache.Put(fp, lru.Value(f.val))
		}
		return LookupResult{Exists: true, Value: f.val, Source: SourceStore}
	default:
		s.storeMiss++
		if n.bloom != nil {
			s.bloomFalse++
		}
		if mode == modeLookup {
			return LookupResult{Exists: false, Source: SourceNew}
		}
		if n.bloom != nil {
			n.bloom.Add(fp)
		}
	}
	s.inserts++
	if n.wb && mode == modeInsert {
		n.cache.PutDirty(fp, lru.Value(val))
	} else if n.cache != nil {
		n.cache.Put(fp, lru.Value(val))
	}
	f.exists, f.val = true, val
	if f.direct {
		return LookupResult{Exists: false, Source: SourceBloom}
	}
	return LookupResult{Exists: false, Source: SourceNew}
}

// adoptLocked answers an operation that waited on f — a rider from another
// operation, or a later item of the batch that owns f — from f's outcome
// instead of a probe of its own: a duplicate of what the flight found or
// inserted, or the miss of a read-only probe. It installs nothing: only a
// flight's owner writes the cache, inside the critical section that retires
// the flight. A waiter installing after re-locking could race a Remove
// (migration) that ran between the flight's completion and this wake-up and
// resurrect the entry — Remove's wait-out-the-flight guard cannot see
// waiters. Caller holds s.mu.
func (n *Node) adoptLocked(s *nodeStripe, f *flight) LookupResult {
	s.coalesced++
	s.lookups++
	if f.exists {
		s.storeHits++
		return LookupResult{Exists: true, Value: f.val, Source: SourceStore}
	}
	s.storeMiss++
	if n.bloom != nil {
		s.bloomFalse++
	}
	return LookupResult{Exists: false, Source: SourceNew}
}

// waiter is a batch item whose fingerprint is in somebody's flight: the
// batch's own (an earlier item registered it; this one costs no I/O and
// resolves after its owner as the owner's duplicate, exactly as sequential
// processing would) or some other caller's (the batch waits for that flight
// and adopts its outcome).
type waiter struct {
	item int32
	f    *flight
}

// nodeScratch is the pooled working memory of one batchMisses: the counting
// sort of the items by stripe, the items that wait on a flight they do not
// own, and the keys handed to the store — which must not keep them (see
// hashdb.Store). The flights themselves are never pooled.
type nodeScratch struct {
	start   []int32 // stripe si's items are order[start[si]:start[si+1]]
	order   []int32
	dups    []waiter // on the batch's own flights
	foreign []waiter // on other operations' flights
	fps     []fingerprint.Fingerprint
	pairs   []hashdb.Pair
}

var nodeScratchPool = sync.Pool{New: func() any { return new(nodeScratch) }}

//shhc:returns-buf
func getNodeScratch() *nodeScratch { return nodeScratchPool.Get().(*nodeScratch) }

//shhc:takes-buf sc
func putNodeScratch(sc *nodeScratch) {
	clear(sc.dups) // hold no flight beyond the batch
	clear(sc.foreign)
	if cap(sc.order) > maxPooledBatch {
		*sc = nodeScratch{}
	}
	nodeScratchPool.Put(sc)
}

// batchAsync runs a batch through the pipeline: a lock-free pass over the
// cache, then — for what it did not answer — the two phases of batchMisses.
// It answers item i in results[i], which the caller hands in zeroed — one per
// item, in input order; a fingerprint appearing twice resolves in input
// order, the second occurrence seeing the first as a duplicate.
func (n *Node) batchAsync(ctx context.Context, results []LookupResult, fpOf func(int) fingerprint.Fingerprint, valOf func(int) Value, mode batchMode) error {
	// The routing fence answers first: a stale-routed call touches nothing.
	if ok, err := n.admit(ctx); err != nil {
		return err
	} else if ok {
		defer n.fence.RUnlock()
	}
	// Phase 0 — lock-free prepass: resolve cache hits with no stripe lock. A
	// resolved item (Source is set; the zero Source marks unresolved) never
	// enters the locked RAM pass, so a cache-resident batch touches no mutex
	// and no pooled scratch, and one shared counter: all its hits are counted
	// on the stripe of the first (Stats only ever sums the stripes' counters;
	// they are per stripe to spread the callers, not to attribute the hits).
	// A durable batch on a write-back node skips it: it cannot tell a dirty
	// hit from a clean one.
	if n.cache != nil && !n.closedFast.Load() && !(n.wb && mode == modeDurable) {
		hits, counted := 0, 0
		for i := range results {
			fp := fpOf(i)
			if v, ok := n.cache.GetFast(fp); ok {
				if hits == 0 {
					counted = n.stripeIndex(fp)
				}
				hits++
				results[i] = LookupResult{Exists: true, Value: Value(v), Source: SourceCache}
			} else if n.bloom != nil {
				// The RAM pass tests this key's filter word under a stripe
				// lock, one key after another: load it now, while the loop
				// has nothing waiting on it, so the batch's misses overlap.
				n.bloom.Prefetch(fp)
			}
		}
		if hits > 0 {
			n.stripes[counted].fastHits.Add(uint64(hits))
		}
		if hits == len(results) {
			return nil
		}
	}
	return n.batchMisses(ctx, results, fpOf, valOf, mode)
}

// batchMisses runs the items batchAsync's prepass left unresolved through
// the two-phase pipeline: one RAM pass per stripe under its lock, a single
// coalesced SSD phase with no stripe locks held (each distinct hash-table
// page is read once, reads and writes overlap up to the store's batch
// parallelism), then a per-stripe completion pass.
//
// Cancelling ctx mid-batch stops the coalesced SSD phase from issuing
// further device operations and fails the batch with ctx.Err(). The
// batch's own flights are failed with the context error — riders from
// other operations waiting on them observe a cancellation, never adopt
// it, and re-run their own walks (the batch's whole wave is cancelled
// together).
func (n *Node) batchMisses(ctx context.Context, results []LookupResult, fpOf func(int) fingerprint.Fingerprint, valOf func(int) Value, mode batchMode) error {
	// One journal barrier covers the whole batch: every eviction its RAM
	// pass and SSD-phase installs displaced is durable before the batch
	// acknowledges, at the cost of a single shared group commit.
	journalBefore := n.journalLSN()
	holdHits := n.wb && mode == modeDurable
	sc := getNodeScratch()
	defer putNodeScratch(sc)
	stripeOf := func(i int) int { return n.stripeIndex(fpOf(i)) }

	// Counting sort of the unresolved items by stripe: count, prefix sum,
	// scatter.
	sc.start = slices.Grow(sc.start[:0], len(n.stripes)+1)[:len(n.stripes)+1]
	clear(sc.start)
	for i := range results {
		if results[i].Source == 0 {
			sc.start[stripeOf(i)+1]++
		}
	}
	for si := range n.stripes {
		sc.start[si+1] += sc.start[si]
	}
	remaining := int(sc.start[len(n.stripes)])
	// The counting sort's scatter; start[si] ends as the end of stripe si's
	// group, which is where the RAM pass reads it from.
	sc.order = slices.Grow(sc.order[:0], remaining)[:remaining]
	for i := range results {
		if results[i].Source == 0 {
			si := stripeOf(i)
			sc.order[sc.start[si]] = int32(i)
			sc.start[si]++
		}
	}

	// flights are the SSD phases this batch owns, one slab in stripe order
	// (the RAM pass visits stripes in ascending order), sharing done. The
	// slab is sized once, by the first registration, for every item the RAM
	// pass has yet to visit — other operations hold pointers into it.
	var flights []flight
	var done chan struct{}
	sc.dups, sc.foreign = sc.dups[:0], sc.foreign[:0]
	// land completes the batch's flights, stripe by stripe under the stripe's
	// lock, and only then wakes whoever waits on them — so a woken rider
	// re-running its RAM walk finds the installed cache entry. With err set
	// the flights fail instead, and the batch with them: no waiter ever
	// hangs on a batch that errored out.
	land := func(err error) error {
		di := 0
		for lo, hi := 0, 0; lo < len(flights); lo = hi {
			si := stripeOf(int(flights[lo].item))
			for hi = lo + 1; hi < len(flights) && stripeOf(int(flights[hi].item)) == si; hi++ {
			}
			s := &n.stripes[si]
			s.mu.Lock()
			for oi := lo; oi < hi; oi++ {
				f, i := &flights[oi], int(flights[oi].item)
				if f.err = err; err == nil {
					results[i] = n.completeLocked(s, f, fpOf(i), valOf(i), mode)
				}
				s.inflight.del(fpOf(i))
			}
			for ; err == nil && di < len(sc.dups) && stripeOf(int(sc.dups[di].item)) == si; di++ {
				results[sc.dups[di].item] = n.adoptLocked(s, sc.dups[di].f)
			}
			s.mu.Unlock()
		}
		if done != nil {
			close(done)
			n.flights.Add(-len(flights))
		}
		return err
	}

	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase A — RAM pass, one stripe-lock hold per stripe group. The first
	// item of each group is the sample the cache and Bloom histograms see:
	// a per-key probe time, at three clock reads per group.
	for si, lo := 0, int32(0); si < len(n.stripes); si, lo = si+1, sc.start[si] {
		group := sc.order[lo:sc.start[si]]
		if len(group) == 0 {
			continue
		}
		s := &n.stripes[si]
		s.mu.Lock()
		if n.closed {
			s.mu.Unlock()
			return land(errNodeClosed)
		}
		registered := len(flights)
		for k, i32 := range group {
			i, timed := int(i32), k == 0
			fp := fpOf(i)
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			// A durable batch on a write-back node writes through a hit
			// only RAM holds (see flight.held).
			var held Source
			var heldVal Value
			if n.cache != nil {
				v, ok := n.cache.Get(fp)
				if timed {
					t1 := time.Now()
					s.histCache.Observe(t1.Sub(t0))
					t0 = t1
				}
				if ok && !(holdHits && n.cache.Dirty(fp)) {
					s.cacheHits++
					s.lookups++
					results[i] = LookupResult{Exists: true, Value: Value(v), Source: SourceCache}
					continue
				}
				if ok {
					held, heldVal = SourceCache, Value(v)
				}
			}
			direct := false
			if n.bloom != nil && held == 0 {
				// An insert adds what the filter proves new in the same call.
				var neg bool
				if mode != modeLookup {
					neg = !n.bloom.TestAndAdd(fp)
				} else {
					neg = !n.bloom.MayContain(fp)
				}
				if timed {
					s.histBloom.Observe(time.Since(t0))
				}
				if neg {
					if mode == modeLookup {
						s.bloomShort++
						s.lookups++
						results[i] = LookupResult{Exists: false, Source: SourceBloom}
						continue
					}
					if n.wb && mode == modeInsert {
						s.bloomShort++
						s.lookups++
						s.inserts++
						n.cache.PutDirty(fp, lru.Value(valOf(i)))
						results[i] = LookupResult{Exists: false, Source: SourceBloom}
						continue
					}
					// Write-through: register a direct-insert flight; the
					// put itself joins the coalesced SSD phase.
					direct = true
				}
			}
			if n.dst != nil && held == 0 {
				if v, ok := n.dst.peek(fp); ok {
					if !holdHits {
						s.destageHits++
						s.storeHits++
						s.lookups++
						results[i] = LookupResult{Exists: true, Value: v, Source: SourceStore}
						continue
					}
					held, heldVal = SourceStore, v
				}
			}
			if !direct { // what the filter just proved new is in nobody's flight
				if f, ok := s.inflight.get(fp); ok {
					if f.done == done {
						sc.dups = append(sc.dups, waiter{i32, f})
					} else {
						f.interest++
						sc.foreign = append(sc.foreign, waiter{i32, f})
					}
					continue
				}
			}
			if flights == nil {
				flights = make([]flight, 0, len(sc.order)-int(lo)-k)
				done = make(chan struct{})
			}
			flights = append(flights, flight{done: done, interest: 1, item: i32, direct: direct || held != 0,
				held: held, exists: held != 0, val: heldVal})
			s.inflight.put(fp, &flights[len(flights)-1])
		}
		if len(flights) > registered {
			n.flights.Add(len(flights) - registered)
		}
		s.mu.Unlock()
	}

	if err := ctx.Err(); err != nil {
		return land(err)
	}
	if len(flights) > 0 {
		// Phase B — the coalesced SSD phase, no stripe locks held. The
		// whole wave is one SSD-phase sample, attributed to the first
		// flight's stripe (Stats merges the stripes' digests anyway).
		t0 := time.Now()
		err := n.ssdWave(ctx, sc, flights, fpOf, valOf, mode)
		n.stripes[stripeOf(int(flights[0].item))].histSSD.Observe(time.Since(t0))
		if err != nil {
			return land(err)
		}
	}
	land(nil) // Phase C — completion

	// Foreign flights: adopt the outcome another caller's SSD phase
	// produced. A flight that was abandoned (its owner was cancelled; that
	// is not this batch's failure), that was a read-only probe's miss while
	// this batch inserts, or that a durable batch on a write-back node cannot
	// know reached the store leaves its item unanswered; what is left
	// re-runs the walk as one follow-up batch and claims its fingerprints
	// itself. Items of one fingerprint stay in input order: they share a
	// stripe, and the RAM pass visited it in that order.
	var again []Pair
	var rerun []int32
	for _, fj := range sc.foreign {
		select {
		case <-fj.f.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		i := int(fj.item)
		switch {
		case fj.f.err != nil && !isCtxErr(fj.f.err):
			return fmt.Errorf("core: batch item %d: %w", i, fj.f.err)
		case fj.f.err == nil && (mode == modeLookup || fj.f.exists && !holdHits):
			s := &n.stripes[stripeOf(i)]
			s.mu.Lock()
			results[i] = n.adoptLocked(s, fj.f)
			s.mu.Unlock()
		default:
			again = append(again, Pair{FP: fpOf(i), Val: valOf(i)})
			rerun = append(rerun, fj.item)
		}
	}
	if len(again) > 0 {
		rs := make([]LookupResult, len(again))
		if err := n.batchPairs(ctx, rs, again, mode); err != nil {
			return err
		}
		for k, i := range rerun {
			results[i] = rs[k]
		}
	}

	if n.wb {
		n.afterDirtyInsert(journalBefore)
		if derr := n.takeDestageErr(); derr != nil {
			return derr
		}
	}
	return nil
}

// batchPairs is batchAsync over a slice of pairs; a read-only batch ignores
// their values.
func (n *Node) batchPairs(ctx context.Context, results []LookupResult, pairs []Pair, mode batchMode) error {
	return n.batchAsync(ctx, results,
		func(i int) fingerprint.Fingerprint { return pairs[i].FP },
		func(i int) Value { return pairs[i].Val }, mode)
}

// ssdWave is a batch's coalesced SSD phase: one batched read for the
// flights that need a probe — their answers land in the flights — then, on
// an insert that does not ack from RAM (a write-through node's, or a
// durable one), one batched write for the direct flights (Bloom-negative
// inserts and held hits, with their held values) plus the probe misses:
// one read-modify-write per bucket page, the group-committed twin of the
// read.
func (n *Node) ssdWave(ctx context.Context, sc *nodeScratch, flights []flight, fpOf func(int) fingerprint.Fingerprint, valOf func(int) Value, mode batchMode) error {
	wrap := func(what string, err error) error {
		if err == nil || isCtxErr(err) {
			return err
		}
		return fmt.Errorf("core: node %s: batch %s: %w", n.id, what, err)
	}
	sc.fps = sc.fps[:0]
	for oi := range flights {
		if !flights[oi].direct {
			sc.fps = append(sc.fps, fpOf(int(flights[oi].item)))
		}
	}
	if len(sc.fps) > 0 {
		vals, found, err := n.store.GetBatch(ctx, sc.fps)
		if err != nil {
			return wrap("lookup", err)
		}
		k := 0
		for oi := range flights {
			if f := &flights[oi]; !f.direct {
				f.exists, f.val = found[k], vals[k]
				k++
			}
		}
	}
	if mode == modeLookup || n.wb && mode == modeInsert {
		return nil
	}
	sc.pairs = sc.pairs[:0]
	for oi := range flights {
		if f := &flights[oi]; f.direct || !f.exists {
			v := valOf(int(f.item))
			if f.held != 0 {
				v = f.val
			}
			sc.pairs = append(sc.pairs, hashdb.Pair{FP: fpOf(int(f.item)), Val: v})
		}
	}
	if len(sc.pairs) == 0 {
		return nil
	}
	if n.jnl != nil {
		// The write bypasses the journal; the batch's flights keep Remove
		// off these keys until it lands.
		if err := n.jnl.cover(sc.pairs); err != nil {
			return wrap("journal", err)
		}
	}
	_, _, err := n.store.PutBatch(ctx, sc.pairs)
	return wrap("insert", err)
}
