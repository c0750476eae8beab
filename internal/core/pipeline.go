package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/lru"
)

// This file implements the node's lookup path, the one walk of Figure 4: a
// two-phase asynchronous pipeline.
//
// Phase 1 (the RAM walk) runs the Figure 4 RAM tiers — LRU cache, Bloom
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
// Cancellation. Every operation takes a context, and a flight's device
// work is decoupled from the caller that started it:
//
//   - When the caller's context can be cancelled, the SSD phase runs in a
//     prober goroutine that also completes the flight (counters, cache
//     install, retirement). The owner merely waits — so a cancelled owner
//     hands the flight off: it returns ctx.Err() immediately while the
//     prober lands the flight for any waiting riders.
//   - Each flight carries an interest count (the owner plus every rider).
//     When the last interested party abandons, the flight's abort flag is
//     raised, and the prober aborts before issuing the next device
//     operation (I/O already issued completes; it is never revoked).
//   - A rider whose context is cancelled stops waiting and returns
//     ctx.Err() without touching the flight table. A rider that waited
//     out a flight which landed with a context error (its owner was
//     cancelled and nobody stayed interested) does not adopt that error:
//     it re-runs the walk and claims the fingerprint itself, so an
//     abandoned flight never poisons later operations.
//   - When the caller's context can never be cancelled (ctx.Done() ==
//     nil, e.g. context.Background()), the prober goroutine is skipped
//     and the SSD phase runs inline in the caller — the exact PR-2 fast
//     path, with zero added overhead.
//
// Lock ordering: an operation holds at most one stripe lock at a time and
// never sleeps on a flight while holding it (it unlocks, waits on
// flight.done, then relocks). Flight completion re-acquires the stripe
// lock, installs the result into the cache, updates the stripe counters,
// removes the in-flight entry, and only then wakes waiters — so a woken
// waiter re-running its RAM walk finds the installed cache entry.
//
// Flight records. A single-key operation allocates its flight and its done
// channel. A batch allocates one slab of flights and one done channel for
// all the SSD phases it owns: the slab is an ordinary garbage-collected
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
// fields are written by the prober before done is closed and read by
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
	// ownerRes is the owner-role result (SourceStore/SourceNew/...); a
	// cancelled owner's result is simply never read.
	ownerRes LookupResult

	// interest counts parties awaiting the flight's outcome: the owner
	// plus every rider. Guarded by the owning stripe's mutex. When the
	// last interested party abandons (cancellation), aborted is raised so
	// the prober stops issuing device I/O. A plain atomic flag — not a
	// context — because the prober only ever polls it between device
	// operations; this keeps flight registration allocation-free on the
	// hot path.
	interest int
	aborted  atomic.Bool

	// item is the input index of the batch item that owns the flight, and
	// direct marks a Bloom-negative insert: no probe needed, just the put.
	item   int32
	direct bool
}

// abortErr is the error an aborted flight lands with when every
// interested party left before the next device operation.
var abortErr = context.Canceled

// isCtxErr reports whether err is a context cancellation or deadline
// error — the class of flight failures a waiting rider must not adopt.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// registerFlightLocked creates and registers a flight for fp. Caller holds
// s.mu, owns the stripe for fp, and must have checked fp is not in flight.
func (n *Node) registerFlightLocked(s *nodeStripe, fp fingerprint.Fingerprint) *flight {
	f := &flight{done: make(chan struct{}), interest: 1}
	s.inflight[fp] = f
	n.flights.Add(1)
	return f
}

// abandonFlight is called by an interested party (owner or rider) whose
// context was cancelled while the flight was in the air: it withdraws its
// interest and, when it was the last one, aborts the probe. Harmless on a
// flight that already landed. Caller must not hold s.mu.
func (n *Node) abandonFlight(s *nodeStripe, f *flight) {
	s.mu.Lock()
	f.interest--
	if f.interest <= 0 {
		f.aborted.Store(true)
	}
	s.mu.Unlock()
}

// failFlight publishes err to any waiters, retires the flight, and returns
// err for the owner. Caller must not hold s.mu.
func (n *Node) failFlight(s *nodeStripe, fp fingerprint.Fingerprint, f *flight, err error) error {
	f.err = err
	s.mu.Lock()
	delete(s.inflight, fp)
	s.mu.Unlock()
	close(f.done)
	n.flights.Done()
	return err
}

// lookupAsync runs the two-phase Figure 4 flow for one fingerprint.
// insert selects LookupOrInsert semantics (insert on miss) over read-only
// Lookup semantics.
func (n *Node) lookupAsync(ctx context.Context, fp fingerprint.Fingerprint, val Value, insert bool) (LookupResult, error) {
	s := &n.stripes[n.stripeIndex(fp)]
	cancellable := ctx.Done() != nil
	// Phase 0 — the lock-free cache-hit fast path: no stripe mutex, no
	// allocation, no phase-timing observation (the histograms are lock-
	// guarded). The cache is the top Figure 4 tier, so a hit here can never
	// shadow a fresher destage-buffer or SSD answer; a miss proves nothing
	// and falls through to the locked walk, which re-checks the cache.
	if n.cache != nil && !n.closedFast.Load() {
		if cancellable {
			if err := ctx.Err(); err != nil {
				return LookupResult{}, err
			}
		}
		if v, ok := n.cache.GetFast(fp); ok {
			s.fastHits.Add(1)
			return LookupResult{Exists: true, Value: Value(v), Source: SourceCache}, nil
		}
	}
	for {
		if cancellable {
			if err := ctx.Err(); err != nil {
				return LookupResult{}, err
			}
		}
		s.mu.Lock()
		if n.closed {
			s.mu.Unlock()
			return LookupResult{}, errNodeClosed
		}

		// Phase 1 — RAM tiers, under the stripe lock.
		if n.cache != nil {
			t0 := time.Now()
			v, ok := n.cache.Get(fp)
			s.histCache.Observe(time.Since(t0))
			if ok {
				s.cacheHits++
				s.lookups++
				s.mu.Unlock()
				return LookupResult{Exists: true, Value: Value(v), Source: SourceCache}, nil
			}
		}
		if n.bloom != nil {
			t0 := time.Now()
			neg := !n.bloom.MayContain(fp)
			s.histBloom.Observe(time.Since(t0))
			if neg {
				if !insert {
					s.bloomShort++
					s.lookups++
					s.mu.Unlock()
					return LookupResult{Exists: false, Source: SourceBloom}, nil
				}
				return n.bloomInsert(ctx, s, fp, val)
			}
		}
		// Destage dirty buffer: an entry evicted from the cache but not
		// yet group-committed to the SSD is still part of the logical
		// store; answering it here (under the stripe lock, before the SSD
		// arm) keeps the Figure 4 tier ordering exact per fingerprint.
		if n.dst != nil {
			if v, ok := n.dst.peek(fp); ok {
				s.destageHits++
				s.storeHits++
				s.lookups++
				s.mu.Unlock()
				return LookupResult{Exists: true, Value: v, Source: SourceStore}, nil
			}
		}

		// Phase 2 — the SSD arm. Join an in-flight operation on the same
		// fingerprint as a rider, or run our own probe with the stripe
		// lock released.
		if f, ok := s.inflight[fp]; ok {
			f.interest++
			s.mu.Unlock()
			if cancellable {
				select {
				case <-f.done:
				case <-ctx.Done():
					n.abandonFlight(s, f)
					return LookupResult{}, ctx.Err()
				}
			} else {
				<-f.done
			}
			if f.err != nil {
				if isCtxErr(f.err) {
					// The flight's owner was cancelled and nobody stayed
					// interested; its abandonment is not our failure.
					// Re-run the walk and claim the fingerprint ourselves.
					continue
				}
				return LookupResult{}, f.err
			}
			if f.exists || !insert {
				s.mu.Lock()
				r := n.adoptLocked(s, f)
				s.mu.Unlock()
				return r, nil
			}
			// The flight we joined was a read-only probe that missed; we
			// still owe the insert. Re-run the walk and claim the
			// fingerprint ourselves.
			continue
		}
		f := n.registerFlightLocked(s, fp)
		s.mu.Unlock()
		if !cancellable {
			// Background-context fast path: no prober goroutine, the SSD
			// phase runs inline exactly as before contexts existed.
			return n.ssdPhase(s, fp, val, insert, f, false)
		}
		go n.ssdPhase(s, fp, val, insert, f, true)
		select {
		case <-f.done:
			if f.err != nil {
				return LookupResult{}, f.err
			}
			// The wb destage-error drain happens here, on the waiting
			// owner, not in the prober: a prober's return value is
			// discarded, and a drain there would swallow the failure
			// (or lose it entirely if the owner had abandoned). The
			// !Exists guard mirrors the inline path exactly — only the
			// miss-with-insert branch drains, so a duplicate answer is
			// never displaced by an unrelated destage failure.
			if insert && n.wb && !f.ownerRes.Exists {
				if derr := n.takeDestageErr(); derr != nil {
					return LookupResult{}, derr
				}
			}
			return f.ownerRes, nil
		case <-ctx.Done():
			// Ownership handoff: the prober keeps flying and completes
			// the flight for any riders; we only stop waiting. If no
			// rider is interested the probe is aborted instead.
			n.abandonFlight(s, f)
			return LookupResult{}, ctx.Err()
		}
	}
}

// bloomInsert handles the Bloom-negative insert arm: the filter proved fp
// new, so no probe is needed. Caller holds s.mu; bloomInsert releases it.
// The filter add happens before the stripe lock drops, which steers every
// later lookup of fp into the SSD arm where the in-flight entry (for the
// write-through store put) serializes it — this is what keeps the insert
// exactly-once without holding the lock across the SSD write. A cancelled
// owner abandons the flight like any other: if the put had not started it
// is aborted (the filter stays conservatively stale — one extra probe
// later, never a wrong answer); once started, it runs to completion.
func (n *Node) bloomInsert(ctx context.Context, s *nodeStripe, fp fingerprint.Fingerprint, val Value) (LookupResult, error) {
	n.bloom.Add(fp)
	if n.wb {
		// Write-back: the insert is pure RAM (destage happens on
		// eviction), so it completes inside phase 1 — except that an
		// eviction it displaced must be journal-durable before the ack
		// (the barrier runs with no locks held and is a no-op when
		// nothing evicted).
		s.bloomShort++
		s.lookups++
		s.inserts++
		before := n.journalLSN()
		n.cache.PutDirty(fp, lru.Value(val))
		s.mu.Unlock()
		n.afterDirtyInsert(before)
		if derr := n.takeDestageErr(); derr != nil {
			return LookupResult{}, derr
		}
		return LookupResult{Exists: false, Source: SourceBloom}, nil
	}
	f := n.registerFlightLocked(s, fp)
	f.direct = true
	s.mu.Unlock()
	if ctx.Done() == nil {
		return n.directInsert(s, fp, val, f)
	}
	go n.directInsert(s, fp, val, f)
	select {
	case <-f.done:
		if f.err != nil {
			return LookupResult{}, f.err
		}
		return f.ownerRes, nil
	case <-ctx.Done():
		n.abandonFlight(s, f)
		return LookupResult{}, ctx.Err()
	}
}

// directInsert performs the Bloom-negative write-through store put with no
// locks held, then completes the flight. It is the prober for bloomInsert
// flights.
func (n *Node) directInsert(s *nodeStripe, fp fingerprint.Fingerprint, val Value, f *flight) (LookupResult, error) {
	if f.aborted.Load() {
		// Every interested party left before the write started.
		return LookupResult{}, n.failFlight(s, fp, f, abortErr)
	}
	t0 := time.Now()
	_, perr := n.store.Put(fp, val)
	s.histSSD.Observe(time.Since(t0))
	if perr != nil {
		return LookupResult{}, n.failFlight(s, fp, f, fmt.Errorf("core: node %s: insert %s: %w", n.id, fp.Short(), perr))
	}
	return n.landFlight(s, fp, val, f, true), nil
}

// ssdPhase runs fp's probe — and, on a miss with insert semantics, the
// insert — with no locks held, then completes the flight: counters and
// cache install land under one stripe-lock hold together with the
// in-flight entry's removal, and waiters wake only after that. It is the
// prober for lookup flights: when the owner's context is cancellable it
// runs in its own goroutine and survives the owner's departure. The
// flight's abort flag gates each device operation — once every interested
// party has abandoned, the next device operation is skipped and the
// flight lands with the cancellation error (which riders never adopt).
// detached marks the prober-goroutine mode, where the return value is
// discarded and the waiting owner reads the flight instead.
func (n *Node) ssdPhase(s *nodeStripe, fp fingerprint.Fingerprint, val Value, insert bool, f *flight, detached bool) (LookupResult, error) {
	if f.aborted.Load() {
		return LookupResult{}, n.failFlight(s, fp, f, abortErr)
	}
	t0 := time.Now()
	v, ok, err := n.store.Get(fp)
	if err != nil {
		s.histSSD.Observe(time.Since(t0))
		return LookupResult{}, n.failFlight(s, fp, f, fmt.Errorf("core: node %s: lookup: %w", n.id, err))
	}
	f.exists, f.val = ok, v
	if ok || !insert {
		s.histSSD.Observe(time.Since(t0))
		return n.landFlight(s, fp, val, f, insert), nil
	}
	// Miss with insert semantics. Write-through pays the store write out
	// here with no locks held; write-back parks the entry dirty in the
	// cache during completion. The write is skipped if everyone lost
	// interest while the probe was in the air — the fingerprint simply
	// stays unrecorded, which is what a caller that got ctx.Err() must
	// assume anyway.
	if !n.wb {
		if f.aborted.Load() {
			s.histSSD.Observe(time.Since(t0))
			return LookupResult{}, n.failFlight(s, fp, f, abortErr)
		}
		if _, perr := n.store.Put(fp, val); perr != nil {
			s.histSSD.Observe(time.Since(t0))
			return LookupResult{}, n.failFlight(s, fp, f, fmt.Errorf("core: node %s: insert %s: %w", n.id, fp.Short(), perr))
		}
	}
	s.histSSD.Observe(time.Since(t0))
	res := n.landFlight(s, fp, val, f, true)
	// The drain must only happen where the return value is read: inline
	// mode drains here; in detached (prober-goroutine) mode the waiting
	// owner drains after f.done instead — a drain here would consume the
	// failure and throw it away with the ignored return value.
	if n.wb && !detached {
		if derr := n.takeDestageErr(); derr != nil {
			return LookupResult{}, derr
		}
	}
	return res, nil
}

// landFlight completes a single-key flight whose device work is done and
// wakes its waiters. An eviction that a write-back install displaced must be
// journal-durable before anyone reads the flight as complete, hence the
// barrier between the stripe lock and the wake-up.
func (n *Node) landFlight(s *nodeStripe, fp fingerprint.Fingerprint, val Value, f *flight, insert bool) LookupResult {
	before := n.journalLSN()
	s.mu.Lock()
	f.ownerRes = n.completeLocked(s, f, fp, val, insert)
	delete(s.inflight, fp)
	s.mu.Unlock()
	if insert && !f.ownerRes.Exists {
		n.afterDirtyInsert(before)
	}
	close(f.done)
	n.flights.Done()
	return f.ownerRes
}

// completeLocked lands f, whose device work succeeded, for its owner: it
// counts the lookup under the tier that answered it, installs the entry in
// the cache (and the filter), leaves in f what riders will read — after an
// insert the fingerprint exists, with val — and returns the owner's answer.
// On entry f.exists and f.val hold the probe's answer, unless f is direct.
// Caller holds s.mu, and retires the flight before releasing it.
func (n *Node) completeLocked(s *nodeStripe, f *flight, fp fingerprint.Fingerprint, val Value, insert bool) LookupResult {
	s.lookups++
	switch {
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
		if !insert {
			return LookupResult{Exists: false, Source: SourceNew}
		}
		if n.bloom != nil {
			n.bloom.Add(fp)
		}
	}
	s.inserts++
	if n.wb {
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

// nodeScratch is the pooled working memory of one batchAsync: the counting
// sort of the items by stripe, the items that wait on a flight they do not
// own, and the keys handed to the store — which must not keep them (see
// hashdb.Store). The flights themselves are never pooled.
type nodeScratch struct {
	hits    []int32 // lock-free cache hits per stripe
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

// batchAsync runs a batch through the two-phase pipeline: one RAM pass per
// stripe under its lock, a single coalesced SSD phase with no stripe locks
// held (each distinct hash-table page is read once, reads and writes
// overlap up to the store's batch parallelism), then a per-stripe
// completion pass. Results are in input order; a fingerprint appearing
// twice resolves in input order, the second occurrence seeing the first as
// a duplicate.
//
// Cancelling ctx mid-batch stops the coalesced SSD phase from issuing
// further device operations and fails the batch with ctx.Err(). The
// batch's own flights are failed with the context error — riders from
// other operations waiting on them observe a cancellation, never adopt
// it, and re-run their own walks (no handoff on the batch path; the
// batch's whole wave is cancelled together).
func (n *Node) batchAsync(ctx context.Context, count int, fpOf func(int) fingerprint.Fingerprint, valOf func(int) Value, insert bool) ([]LookupResult, error) {
	results := make([]LookupResult, count)
	// One journal barrier covers the whole batch: every eviction its RAM
	// pass and SSD-phase installs displaced is durable before the batch
	// acknowledges, at the cost of a single shared group commit.
	journalBefore := n.journalLSN()
	sc := getNodeScratch()
	defer putNodeScratch(sc)
	stripeOf := func(i int) int { return n.stripeIndex(fpOf(i)) }

	// Phase 0 — lock-free prepass: resolve cache hits with no stripe lock,
	// and count what is left per stripe. A resolved item (Source is set; the
	// zero Source marks unresolved) never enters the locked RAM pass, so a
	// cache-resident batch touches no mutex at all, and one shared counter
	// per stripe it hit.
	sc.hits = slices.Grow(sc.hits[:0], len(n.stripes))[:len(n.stripes)]
	sc.start = slices.Grow(sc.start[:0], len(n.stripes)+1)[:len(n.stripes)+1]
	clear(sc.hits)
	clear(sc.start)
	fast := n.cache != nil && !n.closedFast.Load()
	for i := 0; i < count; i++ {
		fp := fpOf(i)
		si := n.stripeIndex(fp)
		if fast {
			if v, ok := n.cache.GetFast(fp); ok {
				sc.hits[si]++
				results[i] = LookupResult{Exists: true, Value: Value(v), Source: SourceCache}
				continue
			}
		}
		sc.start[si+1]++
	}
	for si, h := range sc.hits {
		if h > 0 {
			n.stripes[si].fastHits.Add(uint64(h))
		}
		sc.start[si+1] += sc.start[si]
	}
	remaining := int(sc.start[len(n.stripes)])
	if remaining == 0 {
		return results, nil
	}
	// The counting sort's scatter; start[si] ends as the end of stripe si's
	// group, which is where the RAM pass reads it from.
	sc.order = slices.Grow(sc.order[:0], remaining)[:remaining]
	for i := 0; i < count; i++ {
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
	// leaveForeigns withdraws interest from foreign flights not yet
	// waited out, starting at index from.
	leaveForeigns := func(from int) {
		for _, fj := range sc.foreign[from:] {
			n.abandonFlight(&n.stripes[stripeOf(int(fj.item))], fj.f)
		}
	}
	// land completes the batch's flights, stripe by stripe under the stripe's
	// lock, and only then wakes whoever waits on them — so a woken rider
	// re-running its RAM walk finds the installed cache entry. With err set
	// the flights fail instead, and the batch with them: no waiter ever
	// hangs on a batch that errored out.
	land := func(err error) ([]LookupResult, error) {
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
					results[i] = n.completeLocked(s, f, fpOf(i), valOf(i), insert)
				}
				delete(s.inflight, fpOf(i))
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
		if err != nil {
			leaveForeigns(0)
			return nil, err
		}
		return results, nil
	}

	if err := ctx.Err(); err != nil {
		return nil, err
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
			if n.cache != nil {
				v, ok := n.cache.Get(fp)
				if timed {
					t1 := time.Now()
					s.histCache.Observe(t1.Sub(t0))
					t0 = t1
				}
				if ok {
					s.cacheHits++
					s.lookups++
					results[i] = LookupResult{Exists: true, Value: Value(v), Source: SourceCache}
					continue
				}
			}
			direct := false
			if n.bloom != nil {
				neg := !n.bloom.MayContain(fp)
				if timed {
					s.histBloom.Observe(time.Since(t0))
				}
				if neg {
					if !insert {
						s.bloomShort++
						s.lookups++
						results[i] = LookupResult{Exists: false, Source: SourceBloom}
						continue
					}
					n.bloom.Add(fp)
					if n.wb {
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
			if n.dst != nil {
				if v, ok := n.dst.peek(fp); ok {
					s.destageHits++
					s.storeHits++
					s.lookups++
					results[i] = LookupResult{Exists: true, Value: v, Source: SourceStore}
					continue
				}
			}
			if !direct { // what the filter just proved new is in nobody's flight
				if f, ok := s.inflight[fp]; ok {
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
			flights = append(flights, flight{done: done, interest: 1, item: i32, direct: direct})
			s.inflight[fp] = &flights[len(flights)-1]
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
		err := n.ssdWave(ctx, sc, flights, fpOf, valOf, insert)
		n.stripes[stripeOf(int(flights[0].item))].histSSD.Observe(time.Since(t0))
		if err != nil {
			return land(err)
		}
	}
	land(nil) // Phase C — completion

	// Foreign flights: adopt the outcome another caller's SSD phase
	// produced. A flight that was abandoned (its owner was cancelled; that
	// is not this batch's failure) or that was a read-only probe's miss
	// while this batch inserts leaves the item to re-run the per-item
	// pipeline.
	cancellable := ctx.Done() != nil
	for fi, fj := range sc.foreign {
		if cancellable {
			select {
			case <-fj.f.done:
			case <-ctx.Done():
				leaveForeigns(fi)
				return nil, ctx.Err()
			}
		} else {
			<-fj.f.done
		}
		i := int(fj.item)
		var err error
		switch {
		case fj.f.err != nil && !isCtxErr(fj.f.err):
			err = fj.f.err
		case fj.f.err == nil && (fj.f.exists || !insert):
			s := &n.stripes[stripeOf(i)]
			s.mu.Lock()
			results[i] = n.adoptLocked(s, fj.f)
			s.mu.Unlock()
		default:
			results[i], err = n.lookupAsync(ctx, fpOf(i), valOf(i), insert)
		}
		if err != nil {
			leaveForeigns(fi + 1)
			return nil, fmt.Errorf("core: batch item %d: %w", i, err)
		}
	}

	if n.wb {
		n.afterDirtyInsert(journalBefore)
		if derr := n.takeDestageErr(); derr != nil {
			return nil, derr
		}
	}
	return results, nil
}

// ssdWave is a batch's coalesced SSD phase: one batched read for the
// flights that need a probe — their answers land in the flights — then, on
// a write-through node that inserts, one batched write for the direct
// (Bloom-negative) flights plus the probe misses: one read-modify-write per
// bucket page, the group-committed twin of the read.
func (n *Node) ssdWave(ctx context.Context, sc *nodeScratch, flights []flight, fpOf func(int) fingerprint.Fingerprint, valOf func(int) Value, insert bool) error {
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
	if !insert || n.wb {
		return nil
	}
	sc.pairs = sc.pairs[:0]
	for oi := range flights {
		if f := &flights[oi]; f.direct || !f.exists {
			sc.pairs = append(sc.pairs, hashdb.Pair{FP: fpOf(int(f.item)), Val: valOf(int(f.item))})
		}
	}
	if len(sc.pairs) == 0 {
		return nil
	}
	_, _, err := n.store.PutBatch(ctx, sc.pairs)
	return wrap("insert", err)
}
