package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/lru"
	"shhc/internal/metrics"
	"shhc/internal/parallel"
)

// This file implements the write-back node's asynchronous destage pipeline:
// one goroutine (the destager) that moves dirty entries to the store in
// group-commit waves, from two sources.
//
// Clean-ahead. The destager runs ahead of eviction: once a wave's worth of
// dirty entries has accumulated in the cache it copies the coldest of them
// into a wave — they stay in the cache, readable, the whole time — writes
// the wave through the store's batched write path (hashdb.Store.PutBatch), and
// marks each entry clean if it still holds the value that was written. A
// wave is sized by what is pending, up to half the cache by default, so it
// spans the table's bucket pages several times over and pays one page
// read-modify-write for all of a page's dirty entries instead of one per
// entry. In steady state an eviction therefore finds a clean victim: no
// journal record, no fsync barrier, no buffer slot, nothing to wait for.
//
// The dirty buffer. An eviction that does find a dirty victim — the
// destager has fallen behind, or the victim was re-dirtied after its wave —
// moves the entry into a bounded per-node dirty buffer (pure RAM, O(1)),
// journaled when the node has a journal; the next wave drains the buffer
// first. No device I/O ever runs under a cache-stripe lock.
//
// Correctness invariants:
//
//   - A dirty entry is findable at every instant until its store write has
//     completed: it is either in the cache (clean-ahead never removes it) or
//     in the buffer's index until the wave that wrote it completes, and
//     every lookup path consults the buffer (under the fingerprint's
//     node-stripe lock) after the RAM tiers and before the SSD tier, so the
//     Figure-4 cache→bloom→SSD ordering stays exact per fingerprint.
//   - Waves run one at a time on the destager goroutine, so two writes of
//     one fingerprint reach the store in the order they were captured. A
//     clean-ahead capture skips fingerprints that also sit in the buffer:
//     the buffered value is the older one and must not land second.
//   - An entry is marked clean only by lru.MarkCleanIf with the value its
//     wave wrote: re-dirtied with a newer value mid-wave, it stays dirty and
//     a later wave writes it again. A cleaned entry is as durable as a
//     write-through insert — written to the store, fsynced by the next
//     store Sync — so evicting it needs no journal record.
//   - At most one buffered value per fingerprint: re-dirtying an already
//     buffered fingerprint overwrites its value in place (write
//     coalescing). A value overwritten while its wave is in flight is
//     detected by a generation counter and re-queued, so the newest value
//     is never lost.
//   - The buffer is bounded: an eviction into a full buffer blocks until
//     the destager frees space (backpressure). The destager never waits
//     for a cache or node-stripe lock (clean-ahead only TryLocks cache
//     stripes), so blocked enqueuers cannot deadlock it.
//   - A failed wave re-queues its buffered entries — falling back to
//     per-key writes so only entries whose own write fails accrue retries —
//     and gives up on one only after maxDestageRetries, parking the error
//     (the pre-existing delivery path: next insert, Flush, or Close), so a
//     transient error never forfeits acknowledged inserts and a permanently
//     broken store cannot wedge drain/Close. A clean-ahead entry whose
//     write failed simply stays dirty in the cache.
//   - Remove (migration) calls forget, which waits out a wave that has
//     already picked the fingerprint up from either source — otherwise the
//     wave's store write could resurrect an entry deleted right after it.
//   - Scheduling. A wave nobody waits for — fired by the batch threshold or
//     the interval — runs on parallel's background lane and never holds a P
//     for more than one chunk of chains. A wave that Flush, Close, Remove, a
//     checkpoint or a full buffer waits for runs at full depth, from its
//     start or from the chunk after the wait began (awaited).
//
// Locking. The buffer's entry index is sharded (destageShard) so the
// hot-path peek — which every SSD-bound lookup performs inside its
// stripe-locked walk — contends only with operations on fingerprints of the
// same shard, never across stripes. Every dirtyEntry field access holds its
// shard's mutex. The group-commit state (FIFO queue, the wave being built,
// backpressure and settle conditions, drain/stop flags) lives under the
// global d.mu; the lock order is cache stripe → d.mu → shard.mu, never the
// reverse, and peek takes only the shard lock.

// Destage tuning. A wave holds half the cache, at least 256 entries: the
// table is sized for half-full bucket pages, so a wave of that many
// uniformly hashed entries lands several on every page it touches. The
// buffer only has to absorb the evictions the destager did not get ahead of:
// an eighth of the cache, at least 1024 entries. 2ms bounds how long a
// buffered entry waits for its wave. All three follow from the cache size,
// which the operator sets; no deployment has needed another value.
const (
	minWave             = 256
	minBuffer           = 1024
	defaultWaveInterval = 2 * time.Millisecond
)

// maxDestageRetries bounds how many failed writes one buffered entry may
// see before it is abandoned.
const maxDestageRetries = 2

// Two pauses, counted in destage intervals so that a test's own interval
// scales them: how long clean-ahead holds off after a wave could not write
// its cache entries, and how long the node must be quiet before the
// destager wakes just to truncate the journal.
const (
	cleanHoldIntervals    = 50
	idleTruncateIntervals = 100
)

// journalCheckpointBytes bounds the destage journal under sustained
// eviction load. Truncation needs a moment when the buffer is empty — which
// steady pressure can postpone forever, growing the journal without bound
// and making the next replay arbitrarily long. Past this size the destager
// checkpoints: new enqueues briefly block (the same backpressure path as a
// full buffer), waves fire immediately until the buffer drains, and the
// truncation resets the file. A var, not a const, so tests can trigger it
// at toy sizes.
var journalCheckpointBytes int64 = 4 << 20

// journalTruncateDivisor sets the journal size, as a fraction of
// journalCheckpointBytes, below which a wave that leaves the buffer empty
// does not bother to truncate: each truncation costs a store fsync, a
// journal fsync and a second store fsync at the next mutation, and keeping
// records longer is always safe.
const journalTruncateDivisor = 4

// dirtyEntry is one evicted-but-not-yet-destaged cache entry. All fields
// are guarded by the owning shard's mutex.
type dirtyEntry struct {
	val Value
	// gen increments on every overwrite; a wave only retires the entry if
	// the generation it captured is still current.
	gen uint64
	// queued reports the fingerprint is in the FIFO queue (false while a
	// wave holds it in flight).
	queued bool
	// at is when the entry (re-)entered the queue, driving the
	// interval group-commit trigger.
	at time.Time
	// retries counts this entry's own failed writes; past
	// maxDestageRetries it is dropped (the parked error already reports
	// the failure) so a permanently broken store cannot wedge drain.
	retries int
}

// destageShard is one slice of the buffer's entry index. peek, the
// lookup-hot-path operation, touches exactly one shard.
type destageShard struct {
	mu      sync.Mutex //shhc:lock ramonly rank=2
	pending map[fingerprint.Fingerprint]*dirtyEntry
	_       [40]byte // keep neighboring shard locks off one cache line
}

// destager is the bounded dirty buffer plus the goroutine that runs the
// waves.
type destager struct {
	n *Node

	// shards index the buffered entries by fingerprint. Shard locks nest
	// inside d.mu (d.mu → shard.mu) and are never held while sleeping.
	shards    []destageShard
	shardMask uint64
	// pendingN mirrors the buffer's entry count atomically so peek can skip
	// even the shard lock whenever the buffer is empty (the steady state).
	// A zero read is exact for the looked-up fingerprint: its eviction's
	// enqueue completed — increment included — before the cache-stripe
	// mutex the reader's cache miss just synchronized with was released.
	pendingN atomic.Int64

	mu      sync.Mutex //shhc:lock rank=1
	space   sync.Cond  // signaled when buffer occupancy drops
	settled sync.Cond  // broadcast when a wave lands (forget/drain waiters)
	queue   []fingerprint.Fingerprint
	head    int // queue[:head] already popped
	// queuedCount tracks entries with queued=true (the queue slice may
	// hold stale fingerprints forget already dropped).
	queuedCount int
	// pairs is the wave being built or in flight: pairs[:nbuf] came from
	// the buffer (gens holds their captured generations), pairs[nbuf:] are
	// clean-ahead copies of dirty cache entries. Only the destager
	// goroutine writes it, under d.mu; forget reads it under d.mu. The
	// backing arrays are reused from wave to wave.
	pairs []hashdb.Pair
	gens  []uint64
	nbuf  int
	// draining asks for waves to fire immediately until the buffer and the
	// cache hold nothing dirty; the loop clears it when that pass ends.
	draining bool
	stopping bool
	// checkpointing blocks new enqueues and fires waves immediately until
	// the buffer empties, so the journal can be truncated; set by
	// maybeCheckpointJournal when the journal outgrows
	// journalCheckpointBytes.
	checkpointing bool
	// awaited takes the wave in flight off the background lane. Set under mu
	// by the loop as a wave starts, then by whoever is about to wait for it
	// (and by hashdb, from inside the wave, when the store blocks).
	awaited atomic.Bool
	// cleanErr is the error of the last wave that failed to write a
	// clean-ahead entry; Flush reports it when entries stay dirty.
	cleanErr error

	batch    int
	capacity int
	interval time.Duration

	// cleanHold (unix nanoseconds) suspends clean-ahead until then; see
	// holdCleaningLocked.
	cleanHold atomic.Int64

	kick chan struct{} // wakes the loop; buffered, non-blocking sends
	done chan struct{} // closed when the loop exits

	// keepJournal latches once a wave drops an entry after exhausting its
	// write retries: from then on the journal is that entry's only copy,
	// so it is never truncated again in this process (replay against a
	// repaired store can still recover the entry).
	keepJournal atomic.Bool

	// Counters, read by Stats without any lock.
	entries   atomic.Uint64
	pages     atomic.Uint64
	waves     atomic.Uint64
	coalesced atomic.Uint64
	waveHist  *metrics.Histogram
}

// newDestager sizes the destager from cfg.CacheSize, or from the test
// hooks that are set.
func newDestager(n *Node, cfg NodeConfig) *destager {
	batch := cmp.Or(cfg.destageBatch, max(minWave, cfg.CacheSize/2))
	capacity := cmp.Or(cfg.destageQueue, max(minBuffer, cfg.CacheSize/8))
	interval := cmp.Or(cfg.destageInterval, defaultWaveInterval)
	d := &destager{
		n: n,
		// One index shard per node stripe: a shard's entries are exactly
		// the fingerprints whose stripe-locked walks can peek for them.
		shards:    make([]destageShard, len(n.stripes)),
		shardMask: n.mask,
		batch:     batch,
		capacity:  capacity,
		interval:  interval,
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
		// Wave sizes are plain counts; 1ns base makes bucket i hold
		// sizes in [2^(i-1), 2^i).
		waveHist: metrics.NewHistogram(1, 16),
	}
	for i := range d.shards {
		d.shards[i].pending = make(map[fingerprint.Fingerprint]*dirtyEntry)
	}
	d.space.L = &d.mu
	d.settled.L = &d.mu
	go d.loop()
	return d
}

func (d *destager) shard(fp fingerprint.Fingerprint) *destageShard {
	return &d.shards[fp.Bucket64()&d.shardMask]
}

func (d *destager) wake() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// cleanable returns how many dirty cache entries clean-ahead may pick up:
// all of them, or none while a failed wave's hold lasts.
func (d *destager) cleanable() int {
	if hold := d.cleanHold.Load(); hold != 0 && time.Now().UnixNano() < hold {
		return 0
	}
	return d.n.cache.DirtyLen()
}

// nudge wakes the destager once a wave's worth of entries is pending. The
// write-back insert paths call it after their cache inserts, holding no
// lock; it reads a few atomics and never blocks.
func (d *destager) nudge() {
	if int(d.pendingN.Load())+d.cleanable() >= d.batch {
		d.wake()
	}
}

// enqueue parks an evicted dirty entry in the buffer. It is called from the
// LRU eviction callback with the evicted entry's cache-stripe lock (and the
// evicting caller's node-stripe lock) held, so it does no device I/O: it
// either overwrites an already-buffered value or appends to the in-RAM
// queue. When the buffer is at capacity it blocks, both locks still held,
// until the destager — which waits for neither — frees space. That is the
// pipeline's backpressure, and it needs the destager to be a whole buffer
// behind: clean-ahead starts once batch entries are dirty and writes the
// coldest first, so while it keeps up the cold CacheSize − batch entries
// are clean and evictions never get here at all.
//
// With a journal, the entry is also appended to it — under the shard lock,
// so per-fingerprint record order matches buffer order. The append is not
// waited durable here: an fsync wait under the cache-stripe lock would
// serialize every eviction on that stripe behind it. The insert that caused
// the eviction waits in afterDirtyInsert, with no lock held, so concurrent
// evictors share one group commit.
func (d *destager) enqueue(fp fingerprint.Fingerprint, val Value) {
	sh := d.shard(fp)
	j := d.n.jnl
	d.mu.Lock()
	for {
		sh.mu.Lock()
		if e, ok := sh.pending[fp]; ok {
			// Coalesce: newest value wins; a wave in flight re-queues on
			// the generation mismatch.
			e.val = val
			e.gen++
			e.retries = 0
			if j != nil {
				j.append(journalPut, fp, val)
			}
			sh.mu.Unlock()
			d.mu.Unlock()
			d.coalesced.Add(1)
			return
		}
		if (int(d.pendingN.Load()) < d.capacity && !d.checkpointing) || d.stopping {
			sh.pending[fp] = &dirtyEntry{val: val, queued: true, at: time.Now()}
			d.pendingN.Add(1)
			if j != nil {
				j.append(journalPut, fp, val)
			}
			sh.mu.Unlock()
			d.queue = append(d.queue, fp)
			d.queuedCount++
			d.mu.Unlock()
			d.wake() // the loop derives the group-commit deadline from entry.at
			return
		}
		sh.mu.Unlock()
		d.awaited.Store(true)
		d.space.Wait()
	}
}

// peek returns the buffered value for fp, if any. Lookup paths call it
// under fp's node-stripe lock after the RAM tiers miss, which keeps the
// tier ordering exact: an entry leaves the buffer only after its wave's
// store write completed, so a miss here means the SSD probe will see it.
// It takes only fp's shard lock (or no lock at all when the buffer is
// empty), so lookups on different stripes never serialize here.
func (d *destager) peek(fp fingerprint.Fingerprint) (Value, bool) {
	if d.pendingN.Load() == 0 {
		return 0, false
	}
	sh := d.shard(fp)
	sh.mu.Lock()
	e, ok := sh.pending[fp]
	var v Value
	if ok {
		v = e.val
	}
	sh.mu.Unlock()
	return v, ok
}

// forget drops any buffered destage of fp and waits out a wave that already
// holds fp in flight — from the buffer or as a clean-ahead copy — so after
// forget returns no write of fp captured before it can reach the store.
// Called by Remove under fp's node-stripe lock, after the cache entry is
// gone (the destager never takes node-stripe locks, so waiting here is
// deadlock-free).
func (d *destager) forget(fp fingerprint.Fingerprint) {
	sh := d.shard(fp)
	d.mu.Lock()
	for {
		sh.mu.Lock()
		e, inFlight := sh.pending[fp]
		if inFlight && e.queued {
			// Still only queued: drop it. Its fingerprint stays in the
			// queue slice; the pop skips entries no longer pending.
			delete(sh.pending, fp)
			d.pendingN.Add(-1)
			d.queuedCount--
			d.space.Broadcast()
			inFlight = false
		}
		sh.mu.Unlock()
		if !inFlight && !d.cleaningLocked(fp) {
			break
		}
		d.awaited.Store(true)
		d.settled.Wait()
	}
	d.mu.Unlock()
}

// cleaningLocked reports whether the wave in flight carries a clean-ahead
// copy of fp. A linear scan: Remove is a migration-time operation that
// already pays a store delete and a journal fsync. Caller holds d.mu.
func (d *destager) cleaningLocked(fp fingerprint.Fingerprint) bool {
	for _, p := range d.pairs[d.nbuf:] {
		if p.FP == fp {
			return true
		}
	}
	return false
}

// drain blocks until the buffer is empty and no cache entry clean-ahead can
// write is dirty, firing waves immediately (ignoring the group-commit
// triggers) while it waits. A failed write ends the pass early: buffered
// entries are retried and then dropped with a parked error, cache entries
// stay dirty for the caller to find. Callers hold every node-stripe lock,
// so drains never overlap and nothing re-dirties the cache meanwhile.
func (d *destager) drain() {
	d.cleanHold.Store(0) // an explicit flush retries a held-off store at once
	d.mu.Lock()
	d.draining = true
	d.awaited.Store(true)
	d.wake()
	for d.draining {
		d.settled.Wait()
	}
	d.mu.Unlock()
}

// depth reports the current number of buffered entries.
func (d *destager) depth() int {
	return int(d.pendingN.Load())
}

// journalDirty appends a journal record for every dirty cache entry and
// waits for them to be durable. Flush and Close fall back to it for the
// entries a failing store left dirty. Caller holds every node-stripe lock,
// so no cache stripe is busy and the scan misses nothing.
func (d *destager) journalDirty() {
	j := d.n.jnl
	if j == nil {
		return
	}
	var lsn uint64
	d.n.cache.ColdDirty(d.n.cache.Capacity(), func(fp fingerprint.Fingerprint, val lru.Value) bool {
		lsn = j.append(journalPut, fp, Value(val))
		return true
	})
	if err := j.wait(lsn); err != nil {
		d.n.recordDestageErr(fmt.Errorf("core: node %s: destage journal: %w", d.n.id, err))
	}
}

// lastCleanErr returns the error of the last wave that could not write a
// clean-ahead entry.
func (d *destager) lastCleanErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cleanErr
}

// stop shuts the destager down after writing whatever is still buffered.
// The node calls it with the node closed and the buffer drained, so no new
// entries can arrive.
func (d *destager) stop() {
	d.mu.Lock()
	d.stopping = true
	d.awaited.Store(true)
	d.space.Broadcast()
	d.mu.Unlock()
	d.wake()
	<-d.done
}

// advanceHeadLocked skips queue positions whose entry was forgotten or
// already popped, returning whether a queued entry is at the head and its
// enqueue time (copied under the shard lock). Caller holds d.mu.
func (d *destager) advanceHeadLocked() (time.Time, bool) {
	for d.head < len(d.queue) {
		fp := d.queue[d.head]
		sh := d.shard(fp)
		sh.mu.Lock()
		e, ok := sh.pending[fp]
		if ok && e.queued {
			at := e.at
			sh.mu.Unlock()
			return at, true
		}
		sh.mu.Unlock()
		d.head++
	}
	d.queue = d.queue[:0]
	d.head = 0
	return time.Time{}, false
}

// popWaveLocked starts a wave with up to batch queued entries, leaving them
// in the index (marked in flight) so lookups still find them. Caller holds
// d.mu.
func (d *destager) popWaveLocked() {
	for len(d.pairs) < d.batch && d.head < len(d.queue) {
		fp := d.queue[d.head]
		d.head++
		sh := d.shard(fp)
		sh.mu.Lock()
		e, ok := sh.pending[fp]
		if !ok || !e.queued {
			sh.mu.Unlock()
			continue
		}
		e.queued = false
		d.pairs = append(d.pairs, hashdb.Pair{FP: fp, Val: e.val})
		d.gens = append(d.gens, e.gen)
		sh.mu.Unlock()
		d.queuedCount--
	}
	if d.head == len(d.queue) {
		d.queue = d.queue[:0]
		d.head = 0
	}
	d.nbuf = len(d.pairs)
}

// captureClean fills the wave's remaining room with copies of the coldest
// dirty cache entries. Each copy is appended with its cache-stripe lock
// held (see lru.Striped.ColdDirty), so a Remove either took the entry out
// of the cache before the copy — and it is not copied — or finds the copy
// in the wave and waits for it in forget. A fingerprint that also sits in
// the buffer is skipped: the buffered value is the older one, and this
// wave or the next writes it before any later capture of the cache entry.
//
// A fingerprint the journal may still hold a record for gets a fresh record
// first, made durable before the wave is written: that older record — a
// value evicted earlier, or a Remove's tombstone — would otherwise be
// replayed over a store write the journal knows nothing about. With the
// journal empty, the steady state, nothing is appended.
func (d *destager) captureClean() {
	if len(d.pairs) >= d.batch || d.cleanable() == 0 {
		return
	}
	j := d.n.jnl
	var lsn uint64
	d.n.cache.ColdDirty(d.batch-len(d.pairs), func(fp fingerprint.Fingerprint, val lru.Value) bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		if len(d.pairs) >= d.batch {
			return false
		}
		if d.pendingN.Load() > 0 {
			sh := d.shard(fp)
			sh.mu.Lock()
			_, buffered := sh.pending[fp]
			sh.mu.Unlock()
			if buffered {
				return true
			}
		}
		if j != nil && j.mayHold(fp) {
			lsn = j.append(journalPut, fp, Value(val))
		}
		d.pairs = append(d.pairs, hashdb.Pair{FP: fp, Val: Value(val)})
		return true
	})
	if lsn == 0 {
		return
	}
	if err := j.wait(lsn); err != nil {
		// A dead journal cannot order these writes against its records;
		// leave the entries dirty.
		d.n.recordDestageErr(fmt.Errorf("core: node %s: destage journal: %w", d.n.id, err))
		d.mu.Lock()
		d.pairs = d.pairs[:d.nbuf]
		d.holdCleaningLocked(err)
		d.settled.Broadcast()
		d.mu.Unlock()
	}
}

// holdCleaningLocked suspends clean-ahead after a wave could not write its
// cache entries, so a broken store is retried at a bounded rate and not
// once per insert. Caller holds d.mu.
func (d *destager) holdCleaningLocked(err error) {
	d.cleanErr = err
	d.cleanHold.Store(time.Now().Add(cleanHoldIntervals * d.interval).UnixNano())
}

// loop is the destager goroutine: group-commit scheduling plus wave
// execution. A wave fires when batch entries are pending — buffered or
// dirty in the cache — or the oldest buffered entry has waited interval, or
// at once while draining, checkpointing or stopping.
func (d *destager) loop() {
	defer close(d.done)
	for {
		d.maybeCheckpointJournal()
		d.mu.Lock()
		headAt, queued := d.advanceHeadLocked()
		awaited := d.draining || d.stopping || d.checkpointing
		fire := awaited || d.queuedCount+d.cleanable() >= d.batch
		wait := time.Duration(-1)
		if !fire && queued {
			wait = d.interval - time.Since(headAt)
			fire = wait <= 0
		}
		if !fire {
			d.mu.Unlock()
			d.idle(wait)
			continue
		}
		d.popWaveLocked()
		// A full buffer has evictors parked on it (see Scheduling above).
		d.awaited.Store(awaited || int(d.pendingN.Load()) >= d.capacity)
		d.mu.Unlock()
		d.captureClean()
		if len(d.pairs) > 0 {
			d.runWave()
			continue
		}
		// Nothing could be picked up. Whatever is still dirty sits in a
		// cache stripe that was busy; look again shortly.
		d.mu.Lock()
		if d.stopping {
			d.mu.Unlock()
			return
		}
		if d.draining && d.cleanable() == 0 {
			d.draining = false
			d.settled.Broadcast()
		}
		d.mu.Unlock()
		d.idle(min(d.interval, time.Millisecond))
	}
}

// idle parks the loop until it is kicked or wait has passed; a negative
// wait means nothing is scheduled. An unscheduled loop whose journal still
// holds records wakes once more, after the node has been quiet for
// idleTruncateIntervals, to truncate it.
func (d *destager) idle(wait time.Duration) {
	truncate := wait < 0 && d.journalOwesNothing()
	if truncate {
		wait = idleTruncateIntervals * d.interval
	}
	if wait < 0 {
		<-d.kick
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-d.kick:
	case <-t.C:
		if truncate {
			d.truncateJournal()
		}
	}
}

// runWave writes the wave in d.pairs through the store's PutBatch, then
// retires it. Buffered entries overwritten while
// the wave was in flight are re-queued with their newer value; clean-ahead
// copies are marked clean in the cache unless their entry changed. When the
// batched write fails, the wave falls back to per-key writes so each
// entry's fate depends on its *own* write (a batch error may cover chains
// that were never attempted): entries whose write succeeded retire
// normally; buffered entries whose write failed are re-queued — still
// findable in the buffer — and dropped only after maxDestageRetries of
// their own failures; cache entries whose write failed stay dirty. The
// wave runs under no context: caller cancellation must never abandon dirty
// data.
func (d *destager) runWave() {
	pairs, nbuf := d.pairs, d.nbuf
	var (
		pages     int
		succeeded = len(pairs)
		failed    []bool // per-entry write failure; nil = all succeeded
		// lastErr is this wave's most recent write failure. It is NOT
		// parked here: a transient error the fallback or a retry absorbs
		// is not data loss, and parking it would make Flush/Close report
		// failure for fully durable data. It surfaces only if an entry is
		// actually dropped below.
		lastErr error
	)
	_, pages, lastErr = d.n.store.PutBatch(parallel.Background(context.Background(), &d.awaited), pairs)
	if lastErr != nil {
		failed = make([]bool, len(pairs))
		pages, succeeded = 0, 0
		for i, p := range pairs {
			if _, perr := d.n.store.Put(p.FP, p.Val); perr != nil {
				failed[i] = true
				lastErr = perr
				continue
			}
			pages++
			succeeded++
		}
	}
	d.entries.Add(uint64(succeeded))
	d.pages.Add(uint64(pages))
	d.waves.Add(1)
	d.waveHist.Observe(time.Duration(len(pairs)))

	d.mu.Lock()
	dropped := 0
	for i, p := range pairs[:nbuf] {
		sh := d.shard(p.FP)
		sh.mu.Lock()
		e, ok := sh.pending[p.FP]
		if !ok {
			sh.mu.Unlock()
			continue // forgotten (Remove) while in flight
		}
		requeue := false
		switch {
		case e.gen != d.gens[i]:
			// Overwritten mid-flight: the newer value still owes a write
			// regardless of how this wave fared.
			e.retries = 0
			requeue = true
		case failed != nil && failed[i]:
			// This entry's own write failed and its value reached nothing
			// durable: keep it findable and retry, up to the cap.
			e.retries++
			if e.retries > maxDestageRetries {
				dropped++
			} else {
				requeue = true
			}
		}
		if requeue {
			e.queued = true
			e.at = time.Now()
			sh.mu.Unlock()
			d.queue = append(d.queue, p.FP)
			d.queuedCount++
			continue
		}
		delete(sh.pending, p.FP)
		d.pendingN.Add(-1)
		sh.mu.Unlock()
	}
	d.space.Broadcast()
	d.settled.Broadcast()
	d.mu.Unlock()

	// Clean the cache copies while they still count as in flight: a Remove
	// that ran since the capture is parked in forget until they retire, so
	// an entry found here is never a re-insert whose store delete is still
	// to come. The destager cannot wait for a cache-stripe lock (an evictor
	// may hold one until the buffer has room again), so an entry whose
	// stripe is busy twice over just stays dirty and is written again.
	unwritten := 0
	var busy []int
	for i, p := range pairs[nbuf:] {
		if failed != nil && failed[nbuf+i] {
			unwritten++
			continue
		}
		if !d.n.cache.TryMarkCleanIf(p.FP, lru.Value(p.Val)) {
			busy = append(busy, nbuf+i)
		}
	}
	if len(busy) > 0 {
		runtime.Gosched()
		for _, i := range busy {
			d.n.cache.TryMarkCleanIf(pairs[i].FP, lru.Value(pairs[i].Val))
		}
	}

	d.mu.Lock()
	d.pairs, d.gens, d.nbuf = d.pairs[:0], d.gens[:0], 0
	if unwritten > 0 {
		d.holdCleaningLocked(lastErr)
	}
	d.settled.Broadcast()
	d.mu.Unlock()
	if dropped > 0 {
		d.keepJournal.Store(true)
		d.n.recordDestageErr(fmt.Errorf("core: node %s: destage: dropped %d entries after %d failed writes each: %w", d.n.id, dropped, maxDestageRetries+1, lastErr))
	}
	if j := d.n.jnl; j != nil && j.size() >= journalCheckpointBytes/journalTruncateDivisor {
		d.truncateJournal()
	}
}

// journalOwesNothing reports whether the journal holds records and every
// one of them describes an entry the store has already absorbed: the
// buffer is empty, and nothing was dropped to the journal for good.
func (d *destager) journalOwesNothing() bool {
	j := d.n.jnl
	return j != nil && !d.keepJournal.Load() && d.pendingN.Load() == 0 && j.size() > journalHdrSize
}

// truncateJournal empties the journal if the buffer is empty: every record
// it holds then describes an entry the store has already absorbed, so after
// one store fsync the records are redundant. The truncation re-checks,
// under the journal lock, that nothing was appended since the LSN captured
// *before* the store sync and that the buffer is still empty — any record a
// concurrent eviction or Remove appends is thereby kept, because its store
// mutation may postdate the sync. Once keepJournal latches (an entry was
// dropped after exhausting its write retries), truncation stops entirely:
// the journal is that entry's only copy.
//
// It runs when a wave leaves the buffer empty and the journal has grown
// past a quarter of journalCheckpointBytes, when the node has gone quiet,
// and on every Flush and Close. In between records simply stay — replaying
// one twice is an update to the same value — and journalCheckpointBytes
// still bounds what a restart has to replay.
func (d *destager) truncateJournal() {
	if !d.journalOwesNothing() {
		return
	}
	j := d.n.jnl
	a := j.appendedLSN()
	if err := d.n.store.Sync(); err != nil {
		return // keep the journal; the wave path already surfaces store errors
	}
	if err := j.truncateIf(func() bool {
		return j.appended == a && d.pendingN.Load() == 0
	}); err != nil {
		d.n.recordDestageErr(err)
	}
}

// maybeCheckpointJournal enters or leaves checkpoint mode. Entering
// requires buffered entries (otherwise there is no wave to drive the drain
// and truncation either already ran or is blocked on a store error —
// blocking enqueues would then deadlock the node for nothing); leaving
// happens as soon as the buffer is empty, after the wave that emptied it
// truncated the file.
func (d *destager) maybeCheckpointJournal() {
	j := d.n.jnl
	if j == nil || d.keepJournal.Load() {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.checkpointing {
		if d.pendingN.Load() == 0 {
			d.checkpointing = false
			d.space.Broadcast()
		}
		return
	}
	if d.pendingN.Load() > 0 && j.size() > journalCheckpointBytes {
		d.checkpointing = true
	}
}
