package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/lru"
	"shhc/internal/parallel"
)

// This file implements the node's two-phase asynchronous lookup pipeline.
//
// Phase 1 (the RAM walk) runs the Figure 4 RAM tiers — LRU cache, Bloom
// filter — under the fingerprint's stripe lock, exactly as the fully
// locked design does. Phase 2 (the SSD phase) releases the stripe lock
// before touching the store, so one modeled SSD round-trip no longer
// stalls every other fingerprint on the stripe.
//
// What used to be guaranteed by "the whole walk holds the stripe lock" —
// per-fingerprint serialization, hence exactly-once inserts — is instead
// guaranteed by a per-stripe in-flight table: before its SSD phase starts,
// an operation registers its fingerprint; any later operation on the same
// fingerprint finds the entry and waits for the flight to land instead of
// issuing a second probe or a second insert. The invariant becomes:
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
// lock, re-validates nothing was torn down (closed), installs the result
// into the cache, updates the stripe counters, removes the in-flight
// entry, and only then wakes waiters — so a woken waiter re-running its
// RAM walk finds the installed cache entry.

// flight is one in-progress SSD phase for a fingerprint: a probe,
// optionally followed by the insert the probe's miss calls for. Outcome
// fields are written by the prober before done is closed and read by
// waiters only after <-done.
type flight struct {
	done chan struct{}
	// exists reports whether the fingerprint is present in the index when
	// the flight lands — true both for a probe hit and after a successful
	// insert, so a waiter always reads its answer as "duplicate, with
	// val".
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
	if n.cache != nil && !n.lockedReads && !n.closedFast.Load() {
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
			if f.exists {
				// No cache install here: only the flight's prober writes
				// the cache, inside the critical section that retires the
				// flight. A waiter installing after re-locking could race
				// a Remove (migration) that ran between the flight's
				// completion and this wake-up and resurrect the entry —
				// Remove's wait-out-the-flight guard cannot see waiters.
				s.mu.Lock()
				s.coalesced++
				s.storeHits++
				s.lookups++
				s.mu.Unlock()
				return LookupResult{Exists: true, Value: f.val, Source: SourceStore}, nil
			}
			if !insert {
				s.mu.Lock()
				s.coalesced++
				s.storeMiss++
				if n.bloom != nil {
					s.bloomFalse++
				}
				s.lookups++
				s.mu.Unlock()
				return LookupResult{Exists: false, Source: SourceNew}, nil
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
	f.exists, f.val = true, val
	f.ownerRes = LookupResult{Exists: false, Source: SourceBloom}
	s.mu.Lock()
	s.bloomShort++
	s.lookups++
	s.inserts++
	if n.cache != nil {
		n.cache.Put(fp, lru.Value(val))
	}
	delete(s.inflight, fp)
	s.mu.Unlock()
	close(f.done)
	n.flights.Done()
	return LookupResult{Exists: false, Source: SourceBloom}, nil
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
	if ok {
		s.histSSD.Observe(time.Since(t0))
		f.exists, f.val = true, v
		f.ownerRes = LookupResult{Exists: true, Value: v, Source: SourceStore}
		s.mu.Lock()
		s.storeHits++
		s.lookups++
		if n.cache != nil {
			n.cache.Put(fp, lru.Value(v))
		}
		delete(s.inflight, fp)
		s.mu.Unlock()
		close(f.done)
		n.flights.Done()
		return f.ownerRes, nil
	}
	if !insert {
		s.histSSD.Observe(time.Since(t0))
		f.ownerRes = LookupResult{Exists: false, Source: SourceNew}
		s.mu.Lock()
		s.storeMiss++
		if n.bloom != nil {
			s.bloomFalse++
		}
		s.lookups++
		delete(s.inflight, fp)
		s.mu.Unlock()
		close(f.done)
		n.flights.Done()
		return f.ownerRes, nil
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
	f.exists, f.val = true, val // waiters read our insert as their duplicate
	f.ownerRes = LookupResult{Exists: false, Source: SourceNew}
	before := n.journalLSN()
	s.mu.Lock()
	s.storeMiss++
	if n.bloom != nil {
		s.bloomFalse++
		n.bloom.Add(fp)
	}
	s.lookups++
	s.inserts++
	if n.cache != nil {
		if n.wb {
			n.cache.PutDirty(fp, lru.Value(val))
		} else {
			n.cache.Put(fp, lru.Value(val))
		}
	}
	delete(s.inflight, fp)
	s.mu.Unlock()
	// An eviction the write-back install displaced must be journal-durable
	// before anyone reads this flight as complete.
	n.afterDirtyInsert(before)
	close(f.done)
	n.flights.Done()
	// The drain must only happen where the return value is read: inline
	// mode drains here; in detached (prober-goroutine) mode the waiting
	// owner drains after f.done instead — a drain here would consume the
	// failure and throw it away with the ignored return value.
	if n.wb && !detached {
		if derr := n.takeDestageErr(); derr != nil {
			return LookupResult{}, derr
		}
	}
	return f.ownerRes, nil
}

// ownedFlight is one flight a batch registered for itself during its RAM
// pass, resolved by the batch's single coalesced SSD phase.
type ownedFlight struct {
	idx    int  // input index of the item that owns the flight
	si     int  // stripe index
	direct bool // Bloom-negative insert: no probe needed, just the put
	f      *flight
	// Probe outcome (valid after the SSD phase; direct inserts skip it).
	exists bool
	val    Value
	// joiners are later items of this batch with the same fingerprint;
	// they resolve as duplicates of the owner, costing no extra I/O.
	joiners []int
}

// foreignJoin is a batch item whose fingerprint is in flight on behalf of
// some other caller; the batch waits for that flight and adopts its
// outcome.
type foreignJoin struct {
	idx int
	f   *flight
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

	// Phase 0 — lock-free prepass: resolve cache hits with no stripe lock
	// before grouping. A resolved item (Source is set; the zero Source
	// marks unresolved) never enters the locked RAM pass, so a cache-
	// resident batch touches no mutex at all.
	remaining := count
	if n.cache != nil && !n.lockedReads && !n.closedFast.Load() {
		for i := 0; i < count; i++ {
			fp := fpOf(i)
			if v, ok := n.cache.GetFast(fp); ok {
				n.stripes[n.stripeIndex(fp)].fastHits.Add(1)
				results[i] = LookupResult{Exists: true, Value: Value(v), Source: SourceCache}
				remaining--
			}
		}
	}
	if remaining == 0 {
		return results, nil
	}

	groups := make(map[int][]int, len(n.stripes))
	for i := 0; i < count; i++ {
		if results[i].Source != 0 {
			continue
		}
		groups[n.stripeIndex(fpOf(i))] = append(groups[n.stripeIndex(fpOf(i))], i)
	}

	var (
		owned     []ownedFlight
		ownedByFP = make(map[fingerprint.Fingerprint]int)
		foreign   []foreignJoin
	)
	// leaveForeigns withdraws interest from foreign flights not yet
	// waited out, starting at index from.
	leaveForeigns := func(from int) {
		for _, fj := range foreign[from:] {
			n.abandonFlight(&n.stripes[n.stripeIndex(fpOf(fj.idx))], fj.f)
		}
	}
	// abort fails every flight this batch registered so waiters in other
	// goroutines never hang on a batch that errored out.
	abort := func(err error) ([]LookupResult, error) {
		for i := range owned {
			n.failFlight(&n.stripes[owned[i].si], fpOf(owned[i].idx), owned[i].f, err)
		}
		leaveForeigns(0)
		return nil, err
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase A — RAM pass, one stripe-lock hold per stripe group.
	for si, idxs := range groups {
		s := &n.stripes[si]
		s.mu.Lock()
		for _, i := range idxs {
			if n.closed {
				s.mu.Unlock()
				return abort(errNodeClosed)
			}
			fp := fpOf(i)
			if n.cache != nil {
				t0 := time.Now()
				v, ok := n.cache.Get(fp)
				s.histCache.Observe(time.Since(t0))
				if ok {
					s.cacheHits++
					s.lookups++
					results[i] = LookupResult{Exists: true, Value: Value(v), Source: SourceCache}
					continue
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
					ownedByFP[fp] = len(owned)
					owned = append(owned, ownedFlight{idx: i, si: si, direct: true, f: n.registerFlightLocked(s, fp)})
					continue
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
			if oi, ok := ownedByFP[fp]; ok {
				owned[oi].joiners = append(owned[oi].joiners, i)
				continue
			}
			if f, ok := s.inflight[fp]; ok {
				f.interest++
				foreign = append(foreign, foreignJoin{idx: i, f: f})
				continue
			}
			ownedByFP[fp] = len(owned)
			owned = append(owned, ownedFlight{idx: i, si: si, f: n.registerFlightLocked(s, fp)})
		}
		s.mu.Unlock()
	}

	if err := ctx.Err(); err != nil {
		return abort(err)
	}

	// Phase B — the coalesced SSD phase, no stripe locks held. The whole
	// wave is observed as one SSD-phase sample, attributed to the first
	// owned flight's stripe (per-stripe attribution of a cross-stripe
	// wave is an approximation; the merged digest in Stats is what
	// matters).
	observeWave := func(t0 time.Time) {
		if len(owned) > 0 {
			n.stripes[owned[0].si].histSSD.Observe(time.Since(t0))
		}
	}
	var probes []int // indices into owned that need a store read
	for oi := range owned {
		if !owned[oi].direct {
			probes = append(probes, oi)
		}
	}
	t0 := time.Now()
	if len(probes) > 0 {
		fps := make([]fingerprint.Fingerprint, len(probes))
		for k, oi := range probes {
			fps[k] = fpOf(owned[oi].idx)
		}
		if bg, ok := n.store.(hashdb.BatchGetter); ok {
			vals, found, err := bg.GetBatch(ctx, fps)
			if err != nil {
				observeWave(t0)
				if isCtxErr(err) {
					return abort(err)
				}
				return abort(fmt.Errorf("core: node %s: batch lookup: %w", n.id, err))
			}
			for k, oi := range probes {
				owned[oi].exists, owned[oi].val = found[k], vals[k]
			}
		} else {
			err := parallel.Do(ctx, len(probes), parallel.IODepth, func(k int) error {
				oi := probes[k]
				v, ok, gerr := n.store.Get(fps[k])
				if gerr != nil {
					return gerr
				}
				owned[oi].exists, owned[oi].val = ok, v
				return nil
			})
			if err != nil {
				observeWave(t0)
				if isCtxErr(err) {
					return abort(err)
				}
				return abort(fmt.Errorf("core: node %s: batch lookup: %w", n.id, err))
			}
		}
	}
	if insert && !n.wb {
		// Write-through inserts: direct (Bloom-negative) flights plus
		// probe misses. Stores with a batched write path coalesce them
		// into one read-modify-write per bucket page (the group-committed
		// twin of GetBatch); otherwise per-key puts overlap like the
		// reads.
		var puts []int
		for oi := range owned {
			if owned[oi].direct || !owned[oi].exists {
				puts = append(puts, oi)
			}
		}
		if len(puts) > 0 {
			var err error
			if bp, ok := n.store.(hashdb.BatchPutter); ok {
				pairs := make([]hashdb.Pair, len(puts))
				for k, oi := range puts {
					pairs[k] = hashdb.Pair{FP: fpOf(owned[oi].idx), Val: valOf(owned[oi].idx)}
				}
				_, _, err = bp.PutBatch(ctx, pairs)
			} else {
				err = parallel.Do(ctx, len(puts), parallel.IODepth, func(k int) error {
					oi := puts[k]
					_, perr := n.store.Put(fpOf(owned[oi].idx), valOf(owned[oi].idx))
					return perr
				})
			}
			if err != nil {
				observeWave(t0)
				if isCtxErr(err) {
					return abort(err)
				}
				return abort(fmt.Errorf("core: node %s: batch insert: %w", n.id, err))
			}
		}
	}
	observeWave(t0)

	// Phase C — completion, one stripe-lock hold per stripe, waking
	// waiters only after the stripe's results are installed.
	byStripe := make(map[int][]int, len(groups))
	for oi := range owned {
		byStripe[owned[oi].si] = append(byStripe[owned[oi].si], oi)
	}
	for si, ois := range byStripe {
		s := &n.stripes[si]
		s.mu.Lock()
		for _, oi := range ois {
			o := &owned[oi]
			fp := fpOf(o.idx)
			val := valOf(o.idx)
			switch {
			case o.direct:
				s.bloomShort++
				s.lookups++
				s.inserts++
				if n.cache != nil {
					n.cache.Put(fp, lru.Value(val))
				}
				o.f.exists, o.f.val = true, val
				results[o.idx] = LookupResult{Exists: false, Source: SourceBloom}
			case o.exists:
				s.storeHits++
				s.lookups++
				if n.cache != nil {
					n.cache.Put(fp, lru.Value(o.val))
				}
				o.f.exists, o.f.val = true, o.val
				results[o.idx] = LookupResult{Exists: true, Value: o.val, Source: SourceStore}
			case insert:
				s.storeMiss++
				if n.bloom != nil {
					s.bloomFalse++
					n.bloom.Add(fp)
				}
				s.lookups++
				s.inserts++
				if n.cache != nil {
					if n.wb {
						n.cache.PutDirty(fp, lru.Value(val))
					} else {
						n.cache.Put(fp, lru.Value(val))
					}
				}
				o.f.exists, o.f.val = true, val
				results[o.idx] = LookupResult{Exists: false, Source: SourceNew}
			default:
				s.storeMiss++
				if n.bloom != nil {
					s.bloomFalse++
				}
				s.lookups++
				results[o.idx] = LookupResult{Exists: false, Source: SourceNew}
			}
			// Same-batch duplicates: later occurrences see the owner's
			// outcome as their duplicate (or its miss, for read-only
			// batches), exactly as sequential processing would.
			for _, j := range o.joiners {
				s.coalesced++
				s.lookups++
				if o.f.exists {
					s.storeHits++
					results[j] = LookupResult{Exists: true, Value: o.f.val, Source: SourceStore}
				} else {
					s.storeMiss++
					if n.bloom != nil {
						s.bloomFalse++
					}
					results[j] = LookupResult{Exists: false, Source: SourceNew}
				}
			}
			delete(s.inflight, fp)
		}
		s.mu.Unlock()
		for _, oi := range ois {
			close(owned[oi].f.done)
			n.flights.Done()
		}
	}

	// Foreign flights: adopt the outcome another caller's SSD phase
	// produced. The rare read-only-miss + insert case re-runs the full
	// per-item pipeline.
	cancellable := ctx.Done() != nil
	for fi, fj := range foreign {
		if cancellable {
			select {
			case <-fj.f.done:
			case <-ctx.Done():
				n.abandonFlight(&n.stripes[n.stripeIndex(fpOf(fj.idx))], fj.f)
				leaveForeigns(fi + 1)
				return nil, ctx.Err()
			}
		} else {
			<-fj.f.done
		}
		if fj.f.err != nil {
			if isCtxErr(fj.f.err) {
				// The foreign flight's owner was cancelled; re-run this
				// item through the per-item pipeline instead of adopting
				// the abandonment.
				r, err := n.lookupAsync(ctx, fpOf(fj.idx), valOf(fj.idx), insert)
				if err != nil {
					leaveForeigns(fi + 1)
					return nil, fmt.Errorf("core: batch item %d: %w", fj.idx, err)
				}
				results[fj.idx] = r
				continue
			}
			leaveForeigns(fi + 1)
			return nil, fmt.Errorf("core: batch item %d: %w", fj.idx, fj.f.err)
		}
		fp := fpOf(fj.idx)
		s := &n.stripes[n.stripeIndex(fp)]
		if fj.f.exists {
			// Like the single-item waiter: adopt the outcome but do not
			// install into the cache (a Remove may have run since the
			// foreign flight landed).
			s.mu.Lock()
			s.coalesced++
			s.storeHits++
			s.lookups++
			s.mu.Unlock()
			results[fj.idx] = LookupResult{Exists: true, Value: fj.f.val, Source: SourceStore}
			continue
		}
		if !insert {
			s.mu.Lock()
			s.coalesced++
			s.storeMiss++
			if n.bloom != nil {
				s.bloomFalse++
			}
			s.lookups++
			s.mu.Unlock()
			results[fj.idx] = LookupResult{Exists: false, Source: SourceNew}
			continue
		}
		r, err := n.lookupAsync(ctx, fp, valOf(fj.idx), true)
		if err != nil {
			leaveForeigns(fi + 1)
			return nil, fmt.Errorf("core: batch item %d: %w", fj.idx, err)
		}
		results[fj.idx] = r
	}

	if n.wb {
		n.afterDirtyInsert(journalBefore)
		if derr := n.takeDestageErr(); derr != nil {
			return nil, derr
		}
	}
	return results, nil
}
