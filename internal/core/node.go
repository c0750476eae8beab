// Package core implements SHHC itself: the hybrid (RAM+SSD) hash node and
// the cluster that distributes the fingerprint index across nodes.
//
// A Node realizes the paper's Figure 4 lookup flow:
//
//  1. Try the in-RAM LRU cache; a hit answers immediately and promotes the
//     entry to most-recently-used.
//  2. On a read miss, consult the in-RAM Bloom filter; a negative answer
//     proves the fingerprint is new, so the node inserts it (SSD hash
//     table) without any SSD read.
//  3. Otherwise probe the SSD hash table. Present: load the entry into the
//     LRU and answer "duplicate". Absent: insert the new entry and answer
//     "new — send the data".
//
// A Cluster (cluster.go) routes fingerprints to nodes with consistent
// hashing and fans batches out in parallel.
//
//shhc:ctxapi
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shhc/internal/bloom"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/lru"
	"shhc/internal/metrics"
	"shhc/internal/pow2"
	"shhc/internal/ring"
)

// errNodeClosed is returned by every operation on a closed node.
var errNodeClosed = errors.New("core: node is closed")

// Value is the chunk locator stored per fingerprint.
type Value = hashdb.Value

// Source identifies which tier of the hybrid node answered a lookup.
type Source int

const (
	// SourceCache means the RAM LRU answered (fast path).
	SourceCache Source = iota + 1
	// SourceBloom means the Bloom filter proved the fingerprint new
	// without touching the SSD.
	SourceBloom
	// SourceStore means the SSD hash table answered.
	SourceStore
	// SourceNew means the fingerprint was not found anywhere and a new
	// entry was created.
	SourceNew
)

func (s Source) String() string {
	switch s {
	case SourceCache:
		return "cache"
	case SourceBloom:
		return "bloom"
	case SourceStore:
		return "store"
	case SourceNew:
		return "new"
	}
	return fmt.Sprintf("source(%d)", int(s))
}

// LookupResult is a node's answer to one fingerprint query.
type LookupResult struct {
	// Exists reports whether the chunk is already stored in the cloud;
	// the client must upload the chunk when Exists is false.
	Exists bool
	// Value is the stored locator when Exists is true.
	Value Value
	// Source is the tier that produced the answer.
	Source Source
}

// Pair couples a fingerprint with the locator to assign if it is new.
type Pair struct {
	FP  fingerprint.Fingerprint
	Val Value
}

// NodeConfig configures a hybrid hash node.
type NodeConfig struct {
	// ID names the node in the ring.
	ID ring.NodeID
	// Store is the persistent hash table (SSD in the paper). Required;
	// must be safe for concurrent use (both hashdb stores are).
	Store hashdb.Store
	// CacheSize is the LRU capacity in entries; 0 disables the cache.
	CacheSize int
	// BloomExpected sizes the filter; default 1<<20 entries. Its target
	// false-positive rate is bloomFPRate.
	BloomExpected int
	// WriteBack acknowledges inserts from RAM and writes them to the SSD
	// hash table later, in bulk — the paper's Figure 4 "LRU full? →
	// Destage" arm and dedupv1's delayed-write idea. A destager goroutine
	// runs ahead of eviction: it writes the cold dirty end of the cache in
	// page-coalesced group-commit waves and marks the entries clean, so an
	// eviction normally finds a clean victim. A dirty victim is parked in a
	// bounded dirty buffer that the next wave drains first (see
	// destage.go); no device I/O ever runs under a cache-stripe lock.
	WriteBack bool
	// JournalPath enables the durable destage journal (WriteBack only):
	// every entry entering the dirty buffer is appended here and
	// group-commit fsynced before the eviction acknowledges, and NewNode
	// replays it into the store — so a crash between eviction and destage
	// loses nothing. The journal is truncated, after an fsync of the store,
	// once the buffer is empty and the journal has grown past 1 MiB or the
	// node has gone quiet, and on every Flush and Close. Empty disables the
	// journal (entries in the dirty buffer then survive only until a
	// crash).
	JournalPath string

	// stripes, noBloom and the destage fields are set only by this
	// package's tests. stripes pins the hot-path lock stripe count (rounded
	// down to a power of two; 0 selects defaultStripeCount); noBloom builds
	// the node without its filter, so every cache miss reaches the store.
	// destageBatch, destageQueue and destageInterval replace the write-back
	// destager's derived sizes (see newDestager) when nonzero.
	stripes         int
	noBloom         bool
	destageBatch    int
	destageQueue    int
	destageInterval time.Duration
}

// PhaseTimings are per-tier latency digests of the lookup pipeline: how
// long the RAM LRU probes, Bloom filter probes, and SSD phases took. The
// SSD phase is one probe plus the insert its miss called for (for batches:
// one coalesced read/write wave), timed outside the stripe lock.
type PhaseTimings struct {
	Cache metrics.Summary
	Bloom metrics.Summary
	SSD   metrics.Summary
}

// newPhaseHistogram sizes one per-stripe phase histogram. Cache and Bloom
// probes resolve in tens of nanoseconds, SSD phases in tens of
// microseconds to milliseconds; a 100ns base with 40 doubling buckets
// digests both ends.
func newPhaseHistogram() *metrics.Histogram {
	return metrics.NewHistogram(100*time.Nanosecond, 40)
}

// DestageStats snapshots the write-back destage pipeline (all zero unless
// the node runs WriteBack).
type DestageStats struct {
	// QueueDepth is the number of evicted dirty entries currently waiting
	// in the destage buffer.
	QueueDepth uint64
	// Entries counts entries durably destaged by group-commit waves;
	// Pages counts the device page writes those waves cost. Their ratio
	// is the write-coalescing factor (>1 means batching paid off).
	Entries uint64
	Pages   uint64
	// Waves counts group-commit waves issued.
	Waves uint64
	// Coalesced counts enqueues absorbed by overwriting an entry already
	// pending in the buffer (duplicate-update coalescing).
	Coalesced uint64
	// BufferHits counts lookups answered from the dirty buffer — entries
	// evicted from the cache but not yet on the SSD (they also count
	// under StoreHits, since the buffer is logically the store's write
	// staging area).
	BufferHits uint64
	// WaveSizes digests entries-per-wave; the Summary's durations carry
	// plain counts (1ns == one entry).
	WaveSizes metrics.Summary
}

// ReplicaStats counts the replication repair/backfill traffic a node
// absorbed as a replica target: ApplyRepair batches from quorum fan-out,
// read-repair, and anti-entropy sweeps. RepairCreated is the number of
// entries that were actually missing (the rest were already present and
// kept their stored value).
type ReplicaStats struct {
	RepairBatches uint64
	RepairPairs   uint64
	RepairCreated uint64
}

// TransportStats snapshots a node's RPC transport: the stream-multiplexed
// connections serving it. An in-process node has none;
// the RPC server overlays these onto the stats it returns, and clients
// carry them back through the wire stats payload.
type TransportStats struct {
	// StreamsOpen is the number of logical streams currently holding
	// queued frames or charged credit across all live connections.
	StreamsOpen uint64
	// CreditStalls counts the times a stream's send window hit empty with
	// frames still queued — a consumer falling behind its own traffic.
	CreditStalls uint64
	// BytesInFlight is the payload bytes queued in mux writers but not
	// yet flushed to a socket.
	BytesInFlight uint64
	// WindowUpdates counts WINDOW_UPDATE credit grants sent to peers.
	WindowUpdates uint64
}

// NodeStats snapshots a node's counters.
type NodeStats struct {
	ID          ring.NodeID
	Lookups     uint64
	Inserts     uint64
	CacheHits   uint64
	BloomShort  uint64 // lookups short-circuited by a Bloom negative
	StoreHits   uint64
	StoreMisses uint64
	BloomFalse  uint64 // Bloom said maybe, store said no
	// Coalesced counts lookups answered by joining another lookup's
	// in-flight SSD phase instead of issuing their own probe (they still
	// count once under StoreHits or StoreMisses).
	Coalesced uint64
	// StoreEntries is the number of fingerprints the node holds: the
	// store's, plus on a write-back node those acknowledged but not yet
	// destaged. An entry a wave is landing, or one rewritten over a stored
	// entry, counts twice until its wave retires.
	StoreEntries int
	Cache        lru.Stats
	// Phases digests per-tier latency (see PhaseTimings).
	Phases PhaseTimings
	// Destage snapshots the write-back group-commit pipeline.
	Destage DestageStats
	// Recovery is what the node repaired when it opened: destage-journal
	// replay plus the store's own recovery pass (all zero after a clean
	// open).
	Recovery RecoveryStats
	// Replica counts repair/backfill traffic applied to this node as a
	// replication target (see ReplicaStats).
	Replica ReplicaStats
	// Transport snapshots the RPC mux layer serving this node (zero for
	// in-process nodes; see TransportStats).
	Transport TransportStats
	// Bloom snapshots the in-RAM filter's shape and accuracy (zero when
	// the filter is disabled; see BloomStats).
	Bloom BloomStats
}

// BloomStats snapshots the node's scalable Bloom filter: how big it has
// grown and how accurate it still is. Before the filter could grow, the
// only symptom of outrunning its sizing was BloomFalse creeping up;
// EstimatedFPRate and Saturated make that capacity story observable
// directly.
type BloomStats struct {
	// Entries is the number of fingerprints added across all slices.
	Entries uint64
	// SizeBytes is the total RAM the slices' bit arrays occupy.
	SizeBytes uint64
	// Slices is the number of chained filters (1 until the filter first
	// outgrows its construction sizing).
	Slices uint32
	// FillRatio is the newest slice's adds / capacity; 1.0 means the
	// next add chains a new slice.
	FillRatio float64
	// EstimatedFPRate is the compounded false-positive probability at
	// the current fill, bounded by the construction rate no matter how
	// far the filter has grown.
	EstimatedFPRate float64
	// Saturated reports the filter outgrew its construction sizing and
	// chained at least one extra slice — an advisory capacity signal
	// (accuracy is preserved through growth).
	Saturated bool
}

// minCachePerStripe is the smallest LRU capacity worth splitting into an
// extra stripe. Below it the cache stays a single exact-LRU stripe, which
// keeps eviction order deterministic for the small caches tests use.
const minCachePerStripe = 1024

// bloomFPRate is the Bloom filter's target false-positive rate: one
// fingerprint in a hundred that the filter cannot rule out costs a page read
// it did not need.
const bloomFPRate = 0.01

// defaultStripeCount sizes the stripe space to comfortably exceed the
// number of threads that can contend, so two concurrent lookups rarely
// share a lock.
func defaultStripeCount() int {
	n := 4 * runtime.GOMAXPROCS(0)
	// Round up to a power of two, clamped to [1, 256].
	p := 1
	for p < n && p < 256 {
		p <<= 1
	}
	return p
}

// nodeStripe is one slice of a node's fingerprint space: a lock plus the
// counters it guards. A fingerprint always maps to the same stripe, so the
// whole Figure 4 flow for one fingerprint runs under one lock while flows
// for other fingerprints proceed in parallel.
type nodeStripe struct {
	// mu serializes the stripe's RAM walk. The SSD phase always runs
	// outside it (pipeline.go); shhc-vet's lockio check enforces that.
	mu sync.Mutex //shhc:lock ramonly

	// inflight holds the stripe's fingerprints whose SSD phase is running
	// outside the lock (see pipeline.go). Guarded by mu.
	inflight flightTable

	// Per-stripe phase histograms, like the counters: observations touch
	// only stripe-local memory (no cross-core contention on the hot
	// path); Stats() merges them into one digest.
	histCache *metrics.Histogram
	histBloom *metrics.Histogram
	histSSD   *metrics.Histogram

	lookups     uint64
	inserts     uint64
	cacheHits   uint64
	bloomShort  uint64
	storeHits   uint64
	storeMiss   uint64
	bloomFalse  uint64
	coalesced   uint64
	destageHits uint64 // lookups answered from the destage dirty buffer

	// fastHits counts cache hits answered by the lock-free fast path,
	// which by construction cannot take mu — a batch's on the stripe of
	// its first hit; Stats folds the sum into both CacheHits and Lookups,
	// preserving the sources-sum-to-Lookups invariant. Atomic, padded
	// apart from mu by the fields above.
	fastHits atomic.Uint64
}

// Node is a hybrid RAM+SSD hash node. All methods are safe for concurrent
// use. The fingerprint space is split over power-of-two lock stripes:
// per-fingerprint operations serialize (preserving the paper's Figure 4
// tier ordering exactly as a single-lock node would), while lookups of
// different fingerprints scale with cores.
type Node struct {
	id      ring.NodeID
	store   hashdb.Store
	cache   *lru.Striped // nil when disabled
	bloom   *bloom.Scalable
	wb      bool
	stripes []nodeStripe
	mask    uint64

	// dst is the asynchronous destage pipeline (write-back nodes only):
	// evictions enqueue dirty entries here and a dedicated goroutine
	// group-commits them to the store. See destage.go.
	dst *destager

	// jnl is the durable destage journal (nil unless JournalPath is set);
	// recovery summarizes what open-time replay and the store's own
	// recovery pass repaired (immutable after NewNode). See journal.go.
	jnl      *journal
	recovery RecoveryStats

	// flights tracks SSD phases running outside the stripe locks; Close
	// waits for them before flushing and closing the store.
	flights sync.WaitGroup

	// Replication repair accounting (see ApplyRepair). Atomics, not
	// stripe counters: repair batches are cold-path and cross-stripe.
	replRepairBatches atomic.Uint64
	replRepairPairs   atomic.Uint64
	replRepairCreated atomic.Uint64

	// destageMu guards destageErr, the first write-back destage failure,
	// surfaced on the next insert or on Close.
	destageMu  sync.Mutex
	destageErr error

	// fence is held for reading by every admitted routed call and for
	// writing by a raise of epoch, the routing generation the node serves,
	// which it guards (see fence.go).
	fence sync.RWMutex
	epoch *epoch

	// closed is written with every stripe locked and read under any
	// single stripe lock. closedFast mirrors it for the lock-free read
	// path, which holds no lock to read closed under.
	closed     bool
	closedFast atomic.Bool
}

// Ranger and Deleter name two methods of hashdb.Store. Nothing in this
// module asserts against them any more: the frozen benchmark's decorator
// test is their last user, and the PR that extends that instrument (ROADMAP
// item 3) removes them.
type (
	Ranger interface {
		Range(fn func(fp fingerprint.Fingerprint, v hashdb.Value) bool) error //shhc:io
	}
	Deleter interface {
		Delete(fp fingerprint.Fingerprint) (bool, error)
	}
)

// NewNode creates a hybrid hash node. If the store already holds entries
// (a node restarting on its persistent hash table), the Bloom filter is
// rebuilt from the store so duplicate detection survives restarts.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("core: NodeConfig.Store is required")
	}
	if cfg.ID == "" {
		return nil, errors.New("core: NodeConfig.ID is required")
	}
	nstripes := cfg.stripes
	if nstripes <= 0 {
		nstripes = defaultStripeCount()
	}
	nstripes = pow2.Floor(nstripes)
	n := &Node{
		id:      cfg.ID,
		store:   cfg.Store,
		wb:      cfg.WriteBack,
		stripes: make([]nodeStripe, nstripes),
		mask:    uint64(nstripes - 1),
	}
	for i := range n.stripes {
		n.stripes[i].histCache = newPhaseHistogram()
		n.stripes[i].histBloom = newPhaseHistogram()
		n.stripes[i].histSSD = newPhaseHistogram()
	}
	n.epoch = &epoch{next: make(chan struct{})}
	// fail closes whatever NewNode opened before an error unwinds it.
	fail := func(err error) (*Node, error) {
		if n.jnl != nil {
			n.jnl.close()
		}
		return nil, err
	}
	// The destage journal opens — and replays — before the Bloom filter is
	// built, so entries a crashed process evicted but never destaged are
	// back in the store when the filter rebuild enumerates it.
	if cfg.JournalPath != "" {
		if !cfg.WriteBack {
			return nil, errors.New("core: JournalPath requires WriteBack")
		}
		j, recs, torn, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		n.jnl = j
		n.recovery.JournalTornBytes = uint64(torn)
		if len(recs) > 0 {
			if err := n.replayJournal(recs); err != nil {
				return fail(err)
			}
			n.recovery.JournalReplayed = uint64(len(recs))
			if err := cfg.Store.Sync(); err != nil {
				return fail(fmt.Errorf("core: node %s: sync replayed journal: %w", cfg.ID, err))
			}
		}
		// Everything the journal held is durable in the store now; later
		// truncations use the same sync-then-truncate order.
		if err := j.truncateIf(nil); err != nil {
			return fail(err)
		}
	}
	if rr, ok := cfg.Store.(storeRecoveryReporter); ok {
		n.recovery.Store = rr.Recovery()
	}
	if !cfg.noBloom {
		expected := cfg.BloomExpected
		if expected <= 0 {
			expected = 1 << 20
		}
		if existing := cfg.Store.Len(); existing > expected {
			// Keep the false-positive rate honest for the data already
			// present.
			expected = existing * 2
		}
		n.bloom = bloom.NewScalable(expected, bloomFPRate)
		if cfg.Store.Len() > 0 {
			if err := cfg.Store.Range(func(fp fingerprint.Fingerprint, _ hashdb.Value) bool {
				n.bloom.Add(fp)
				return true
			}); err != nil {
				return fail(fmt.Errorf("core: node %s: rebuild bloom: %w", cfg.ID, err))
			}
		}
	}
	if cfg.CacheSize > 0 {
		cacheStripes := cfg.CacheSize / minCachePerStripe
		if cacheStripes > nstripes {
			cacheStripes = nstripes
		}
		if cacheStripes < 1 {
			cacheStripes = 1
		}
		n.cache = lru.NewStriped(cacheStripes, cfg.CacheSize, n.onEvict)
	} else if cfg.WriteBack {
		return fail(errors.New("core: WriteBack requires a cache"))
	}
	if cfg.WriteBack {
		n.dst = newDestager(n, cfg)
	}
	return n, nil
}

// onEvict hands dirty evicted entries to the destage buffer (Figure 4's
// "Destage" box); a victim the destager already cleaned needs nothing. The
// striped cache invokes it with the evicted entry's cache-stripe lock held,
// which is why it must not touch the device: enqueue only parks the entry in
// RAM, appends its journal record, and blocks solely on buffer-full
// backpressure. Lookups of the evicted fingerprint find it in the buffer
// until its wave lands, so the eviction is still atomic as observed through
// the Figure 4 walk.
func (n *Node) onEvict(fp fingerprint.Fingerprint, val lru.Value, dirty bool) {
	if dirty {
		n.dst.enqueue(fp, Value(val))
	}
}

// recordDestageErr parks the first destage failure for delivery on the
// next insert, Flush, or Close (see takeDestageErr).
func (n *Node) recordDestageErr(err error) {
	n.destageMu.Lock()
	if n.destageErr == nil {
		n.destageErr = err
	}
	n.destageMu.Unlock()
}

// takeDestageErr returns and clears the pending destage failure, if any.
func (n *Node) takeDestageErr() error {
	n.destageMu.Lock()
	defer n.destageMu.Unlock()
	err := n.destageErr
	n.destageErr = nil
	return err
}

// ID returns the node's identity.
func (n *Node) ID() ring.NodeID { return n.id }

func (n *Node) stripeIndex(fp fingerprint.Fingerprint) int {
	// Bucket64 (bytes 8..16 of the digest) is independent of the ring
	// prefix (bytes 0..8), so the slice of the key space this node owns
	// still spreads uniformly over its stripes.
	return int(fp.Bucket64() & n.mask)
}

// lockAll acquires every stripe lock in index order; single-stripe
// operations take exactly one, so the orderings can never deadlock.
func (n *Node) lockAll() {
	for i := range n.stripes {
		n.stripes[i].mu.Lock()
	}
}

func (n *Node) unlockAll() {
	for i := len(n.stripes) - 1; i >= 0; i-- {
		n.stripes[i].mu.Unlock()
	}
}

// Lookup answers whether the fingerprint is stored, without inserting: a
// read-only batch of one (see pipeline.go for what cancelling ctx does).
func (n *Node) Lookup(ctx context.Context, fp fingerprint.Fingerprint) (LookupResult, error) {
	return n.one(ctx, Pair{FP: fp}, modeLookup)
}

// LookupOrInsert runs the full Figure 4 flow: answer whether the
// fingerprint exists, inserting it with val when it does not — a
// BatchLookupOrInsert of one.
func (n *Node) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val Value) (LookupResult, error) {
	return n.one(ctx, Pair{FP: fp, Val: val}, modeInsert)
}

// one runs a batch of one; the pair and its answer never leave the stack.
func (n *Node) one(ctx context.Context, p Pair, mode batchMode) (LookupResult, error) {
	var res [1]LookupResult
	pairs := [1]Pair{p}
	err := n.batchPairs(ctx, res[:], pairs[:], mode)
	return res[0], err
}

// insertLocked records a new fingerprint in bloom, cache and store
// according to the write policy. Caller holds the stripe lock owning fp.
//
// Write-through, that means a store write under the stripe lock. Its one
// caller is Insert, the cold out-of-band path that stays fully serialized
// with the lookups of fp so that migration needs no flight of its own;
// no lookup path calls it. lockio is told so here:
//
//shhc:noio
func (n *Node) insertLocked(s *nodeStripe, fp fingerprint.Fingerprint, val Value) error {
	s.inserts++
	if n.bloom != nil {
		n.bloom.Add(fp)
	}
	if n.wb {
		// Write-back: park dirty in the cache for the destager. Any dirty
		// eviction this displaced appended its journal record inside
		// PutDirty; the *callers* run afterDirtyInsert after releasing
		// the stripe lock, so the fsync wait never stalls the stripe.
		n.cache.PutDirty(fp, lru.Value(val))
		return n.takeDestageErr()
	}
	if _, err := n.store.Put(fp, val); err != nil {
		return fmt.Errorf("core: node %s: insert %s: %w", n.id, fp.Short(), err)
	}
	if n.cache != nil {
		n.cache.Put(fp, lru.Value(val))
	}
	return nil
}

// Insert unconditionally records fp -> val (used when uploads complete
// out-of-band from lookups). It
// first waits out any in-flight SSD phase for fp, so it can never race a
// pipelined lookup's insert; the store write itself runs under the stripe
// lock — Insert is a cold path and keeping it fully serialized makes the
// migration callers trivially correct. A cancelled ctx stops the wait
// (the insert then never starts); Insert is not a result-waiter, so
// giving up never aborts the flight it was waiting out.
func (n *Node) Insert(ctx context.Context, fp fingerprint.Fingerprint, val Value) error {
	if ok, err := n.admit(ctx); err != nil {
		return err
	} else if ok {
		defer n.fence.RUnlock()
	}
	s := &n.stripes[n.stripeIndex(fp)]
	cancellable := ctx.Done() != nil
	for {
		if cancellable {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.mu.Lock()
		if n.closed {
			s.mu.Unlock()
			return errNodeClosed
		}
		f, inflight := s.inflight.get(fp)
		if !inflight {
			before := n.journalLSN()
			err := n.insertLocked(s, fp, val)
			s.mu.Unlock()
			// Journal-durability wait for any displaced eviction runs
			// with the stripe lock released.
			n.afterDirtyInsert(before)
			return err
		}
		s.mu.Unlock()
		if cancellable {
			select {
			case <-f.done:
			case <-ctx.Done():
				return ctx.Err()
			}
		} else {
			<-f.done
		}
	}
}

// BatchLookupOrInsert processes pairs through the Figure 4 flow. The
// pipeline makes one RAM pass per stripe under its lock, then
// resolves every fingerprint that reached the SSD tier in a single
// coalesced SSD phase with no stripe locks held: the store reads each
// distinct bucket page once and overlaps page reads and inserts up to the
// device's modeled parallelism, so batch throughput under SSD latency is
// bounded by the device, not by the stripe count.
//
// Results are returned in input order, and a fingerprint appearing twice
// in one batch resolves in input order, so the second occurrence sees the
// first as a duplicate.
//
// Cancelling ctx stops the coalesced SSD phase from issuing further
// device reads and fails the whole batch with ctx.Err().
func (n *Node) BatchLookupOrInsert(ctx context.Context, pairs []Pair) ([]LookupResult, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	results := make([]LookupResult, len(pairs))
	if err := n.batchPairs(ctx, results, pairs, modeInsert); err != nil {
		return nil, err
	}
	return results, nil
}

// ApplyRepair applies a replication backfill or migration batch. Each pair
// runs through the normal lookup-or-insert flow — an entry already present
// keeps its stored value, a missing one is created — so repair is
// idempotent and can never clobber a newer locator. The per-pair results
// report what was found (Exists) versus created, which lets the sender
// detect divergence. Every pair is durable on return: a write-back node
// writes the pairs it creates through to the store, and the ones it holds
// only in RAM, instead of acking them from its cache — a sender may delete
// its own copy once the call returns. The traffic is accounted in the
// Replica stats block on top of the foreground counters the underlying
// batch already bumps.
func (n *Node) ApplyRepair(ctx context.Context, pairs []Pair) ([]LookupResult, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	rs := make([]LookupResult, len(pairs))
	if err := n.batchPairs(ctx, rs, pairs, modeDurable); err != nil {
		return nil, err
	}
	var created uint64
	for _, r := range rs {
		if !r.Exists {
			created++
		}
	}
	n.replRepairBatches.Add(1)
	n.replRepairPairs.Add(uint64(len(pairs)))
	n.replRepairCreated.Add(created)
	return rs, nil
}

// Flush destages every dirty cache entry to the store, drains the destage
// buffer fully, and syncs the store.
func (n *Node) Flush() error {
	n.lockAll()
	defer n.unlockAll()
	if n.closed {
		return errNodeClosed
	}
	if err := n.flushLocked(); err != nil {
		return err
	}
	return n.store.Sync()
}

// flushLocked has the destager write out the buffer and every dirty cache
// entry, so the flush itself runs as page-coalesced waves and entries are
// cleaned the one way they ever are: by the wave that wrote them, if their
// value is unchanged. Caller holds every stripe lock (the destager takes
// none of them, so the drain always progresses). An entry whose write
// failed stays dirty — and is journaled, when there is a journal — keeping a
// failed flush retryable.
func (n *Node) flushLocked() error {
	if n.cache == nil || !n.wb {
		return nil
	}
	n.dst.drain()
	err := n.takeDestageErr()
	if left := n.cache.DirtyLen(); left > 0 {
		// What the store would not take, the journal keeps: a shutdown
		// over a failing store still loses no acknowledged insert.
		n.dst.journalDirty()
		if err == nil {
			err = fmt.Errorf("%d entries still dirty: %w", left, n.dst.lastCleanErr())
		}
	}
	if err != nil {
		return fmt.Errorf("core: node %s: flush: %w", n.id, err)
	}
	// The buffer is empty, so the journal owes nothing; truncating it here
	// makes a returned Flush mean the journal is empty.
	n.dst.truncateJournal()
	return nil
}

// Entries enumerates the node's stored fingerprints (flushing write-back
// state first so the enumeration is complete). Used by cluster membership
// changes and anti-entropy.
// The enumeration holds every stripe lock, so ctx is checked between
// entries: a cancelled caller stops the walk and releases the node.
func (n *Node) Entries(ctx context.Context, fn func(fp fingerprint.Fingerprint, val Value) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.lockAll()
	defer n.unlockAll()
	if n.closed {
		return errNodeClosed
	}
	if err := n.flushLocked(); err != nil {
		return err
	}
	var ctxErr error
	err := n.store.Range(func(fp fingerprint.Fingerprint, v hashdb.Value) bool {
		if ctxErr = ctx.Err(); ctxErr != nil {
			return false
		}
		return fn(fp, Value(v))
	})
	if ctxErr != nil {
		return ctxErr
	}
	return err
}

// Remove deletes a fingerprint from the node's cache and store. The Bloom
// filter cannot forget, so it stays conservatively stale: a later lookup
// of the removed fingerprint may pay one extra SSD probe, never a wrong
// answer. Used by cluster membership changes. Like Insert, Remove first waits out
// any in-flight SSD phase for fp — otherwise a pipelined insert landing
// after the delete would resurrect the entry on a node it just migrated
// off.
func (n *Node) Remove(fp fingerprint.Fingerprint) (bool, error) {
	s := &n.stripes[n.stripeIndex(fp)]
	for {
		s.mu.Lock()
		if n.closed {
			s.mu.Unlock()
			return false, errNodeClosed
		}
		f, inflight := s.inflight.get(fp)
		if !inflight {
			break
		}
		s.mu.Unlock()
		<-f.done
	}
	if n.cache != nil {
		n.cache.Remove(fp)
	}
	if n.dst != nil {
		// Drop any pending destage (waiting out a wave that already holds
		// it), or the buffered write would resurrect the entry after the
		// delete below.
		n.dst.forget(fp)
	}
	removed, err := n.store.Delete(fp)
	var lsn uint64
	if err == nil && n.jnl != nil {
		// Tombstone the journal while still holding the stripe lock — a
		// later re-insert of fp must journal *after* this record, or
		// replay would apply the tombstone over the newer value. It sits
		// after the store delete so a truncation's store sync always
		// covers the delete the tombstone describes.
		lsn = n.jnl.append(journalDelete, fp, 0)
	}
	s.mu.Unlock()
	if err != nil {
		return false, fmt.Errorf("core: node %s: remove %s: %w", n.id, fp.Short(), err)
	}
	if n.jnl != nil {
		// Wait the tombstone durable with the stripe lock released, so a
		// migration removing many keys shares group commits with other
		// stripes instead of blocking this one per fsync. Replay must
		// never resurrect a migrated entry, so the wait itself stays.
		if jerr := n.jnl.wait(lsn); jerr != nil {
			n.recordDestageErr(fmt.Errorf("core: node %s: remove %s: journal: %w", n.id, fp.Short(), jerr))
		}
	}
	return removed, nil
}

// Stats snapshots the node's counters. Every stripe is locked for the
// snapshot, so the aggregate is exactly consistent: the per-source counters
// always sum to Lookups. The snapshot itself is pure RAM; ctx is only
// checked before it starts (it matters for the remote implementation).
func (n *Node) Stats(ctx context.Context) (NodeStats, error) {
	if err := ctx.Err(); err != nil {
		return NodeStats{}, err
	}
	n.lockAll()
	defer n.unlockAll()
	st := NodeStats{
		ID:           n.id,
		StoreEntries: n.store.Len(),
		Recovery:     n.recovery,
		Replica: ReplicaStats{
			RepairBatches: n.replRepairBatches.Load(),
			RepairPairs:   n.replRepairPairs.Load(),
			RepairCreated: n.replRepairCreated.Load(),
		},
	}
	var fastHits uint64
	for i := range n.stripes {
		s := &n.stripes[i]
		// Lock-free cache hits are counted once and folded into both
		// Lookups and CacheHits, so the per-source sum stays exact even
		// though the fast path never takes the stripe lock.
		fh := s.fastHits.Load()
		fastHits += fh
		st.Lookups += s.lookups + fh
		st.Inserts += s.inserts
		st.CacheHits += s.cacheHits + fh
		st.BloomShort += s.bloomShort
		st.StoreHits += s.storeHits
		st.StoreMisses += s.storeMiss
		st.BloomFalse += s.bloomFalse
		st.Coalesced += s.coalesced
		st.Destage.BufferHits += s.destageHits
	}
	if n.dst != nil {
		// Acknowledged entries are part of the index before their wave
		// lands: dirty in the cache, or parked in the buffer.
		st.StoreEntries += n.cache.DirtyLen() + n.dst.depth()
		st.Destage.QueueDepth = uint64(n.dst.depth())
		st.Destage.Entries = n.dst.entries.Load()
		st.Destage.Pages = n.dst.pages.Load()
		st.Destage.Waves = n.dst.waves.Load()
		st.Destage.Coalesced = n.dst.coalesced.Load()
		st.Destage.WaveSizes = n.dst.waveHist.Summarize()
	}
	mergedPhase := func(get func(*nodeStripe) *metrics.Histogram) metrics.Summary {
		m := newPhaseHistogram()
		for i := range n.stripes {
			m.Merge(get(&n.stripes[i]))
		}
		return m.Summarize()
	}
	st.Phases = PhaseTimings{
		Cache: mergedPhase(func(s *nodeStripe) *metrics.Histogram { return s.histCache }),
		Bloom: mergedPhase(func(s *nodeStripe) *metrics.Histogram { return s.histBloom }),
		SSD:   mergedPhase(func(s *nodeStripe) *metrics.Histogram { return s.histSSD }),
	}
	if n.cache != nil {
		// The cache counts its locked hits; the lock-free ones are counted
		// here, once per batch per stripe.
		st.Cache = n.cache.Stats()
		st.Cache.Hits += fastHits
	}
	if n.bloom != nil {
		st.Bloom = BloomStats{
			Entries:         uint64(n.bloom.Len()),
			SizeBytes:       uint64(n.bloom.SizeBytes()),
			Slices:          uint32(n.bloom.Slices()),
			FillRatio:       n.bloom.FillRatio(),
			EstimatedFPRate: n.bloom.EstimatedFPRate(),
			Saturated:       n.bloom.Saturated(),
		}
	}
	return st, nil
}

// Close flushes dirty state and closes the store. Setting closed (under
// every stripe lock) stops new operations from starting SSD phases; Close
// then waits for the phases already in flight to land — they complete
// normally against the still-open store — before flushing and closing it.
func (n *Node) Close() error {
	n.lockAll()
	if n.closed {
		n.unlockAll()
		return errNodeClosed
	}
	n.closed = true
	n.closedFast.Store(true)
	n.unlockAll()
	n.flights.Wait()

	n.lockAll()
	defer n.unlockAll()
	err := n.flushLocked()
	if n.dst != nil {
		// The buffer is drained; stop the destager before closing the
		// store so no wave can race the close.
		n.dst.stop()
	}
	if cerr := n.store.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = n.takeDestageErr()
	}
	if n.jnl != nil {
		if err == nil {
			// Clean shutdown: the store closed (and synced) holding
			// everything, so the journal owes nothing to the next open —
			// unless an entry was ever dropped to the journal (keepJournal),
			// or on error: then it is kept intact for replay instead.
			err = n.jnl.truncateIf(func() bool { return !n.dst.keepJournal.Load() })
		}
		if cerr := n.jnl.close(); err == nil {
			err = cerr
		}
	}
	return err
}
