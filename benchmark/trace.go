package main

// Spans are recorded from outside the program: timing decorators sit at
// the public seams the stack already has (webfront.Config.Index,
// core.Backend on both sides of rpc, core.NodeConfig.Store, hashdb.File)
// and at the benchmark's own http.Server. Where a context crosses a layer
// the parent span id rides it; where none does (the batcher's background
// flush, the rpc wire) budget.go joins spans after the run.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
	"shhc/internal/rpc"
)

// planHeader carries the load generator's request sequence number so the
// handler span can be joined to the client-side measurement.
const planHeader = "X-Bench-Plan"

// Layer names, in path order. They are the budget table's rows.
const (
	layerLoadgen  = "loadgen-http"
	layerWebfront = "webfront"
	layerBatcher  = "batcher"
	layerCluster  = "cluster"
	layerRPC      = "rpc"
	layerNode     = "node"
	layerHashdb   = "hashdb"
	layerFile     = "file"
)

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Node   string `json:"node,omitempty"`
	Keys   int    `json:"keys"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Plan is the request sequence number for loadgen and webfront spans,
	// -1 elsewhere.
	Plan int `json:"plan"`
	// FP0 is the first fingerprint's 64-bit prefix: with Node and Keys it
	// is the key that joins a node span to the rpc span that caused it.
	FP0 uint64 `json:"fp0,omitempty"`
	// fps lists every fingerprint prefix of a cluster call that arrived
	// without a plan in its context (the batcher's flush goroutine), so it
	// can be joined to the plans whose fingerprints it carried.
	fps []uint64
}

func (s *span) dur() int64 { return s.End - s.Start }

// shard is one decorator's span buffer. Each decorator owns one, so the
// only contention is between concurrent calls into the same layer.
type shard struct {
	mu    sync.Mutex
	spans []span
}

func (s *shard) add(sp span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

type tracer struct {
	nextID atomic.Uint64
	mu     sync.Mutex
	shards []*shard
}

func (t *tracer) newShard() *shard {
	s := &shard{spans: make([]span, 0, 1<<14)}
	t.mu.Lock()
	t.shards = append(t.shards, s)
	t.mu.Unlock()
	return s
}

// collect returns every span that started inside [from, to].
func (t *tracer) collect(from, to int64) []span {
	var out []span
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.shards {
		s.mu.Lock()
		for _, sp := range s.spans {
			if sp.Start >= from && sp.Start <= to {
				out = append(out, sp)
			}
		}
		s.mu.Unlock()
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

type spanCtxKey struct{}

// withSpan marks id as the span any call made under ctx belongs to.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

func parentSpan(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanCtxKey{}).(uint64)
	return id
}

func firstPrefix(pairs []core.Pair) uint64 {
	if len(pairs) == 0 {
		return 0
	}
	return pairs[0].FP.Prefix64()
}

// traceHandler is the webfront span: the whole handler, as the benchmark's
// own http.Server sees it.
func (t *tracer) traceHandler(h http.Handler) http.Handler {
	sh := t.newShard()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		plan, err := strconv.Atoi(r.Header.Get(planHeader))
		if err != nil {
			plan = -1
		}
		id := t.nextID.Add(1)
		start := nowNs()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id)))
		sh.add(span{ID: id, Layer: layerWebfront, Op: r.URL.Path, Plan: plan, Start: start, End: nowNs()})
	})
}

// tracedIndex is the cluster span: webfront.Config.Index around the
// *core.Cluster. It forwards the optional surfaces webfront asserts on.
type tracedIndex struct {
	*core.Cluster
	t  *tracer
	sh *shard
}

func (x *tracedIndex) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	id := x.t.nextID.Add(1)
	sp := span{ID: id, Parent: parentSpan(ctx), Layer: layerCluster, Op: "BatchLookupOrInsert",
		Keys: len(pairs), Plan: -1, FP0: firstPrefix(pairs)}
	if sp.Parent == 0 {
		sp.fps = make([]uint64, len(pairs))
		for i, p := range pairs {
			sp.fps[i] = p.FP.Prefix64()
		}
	}
	sp.Start = nowNs()
	res, err := x.Cluster.BatchLookupOrInsert(withSpan(ctx, id), pairs)
	sp.End = nowNs()
	x.sh.add(sp)
	return res, err
}

// tracedBackend times the core.Backend verbs. tracedClient and tracedNode
// embed it and add the optional interfaces their inner type has, so core
// and rpc find exactly the capabilities they would find undecorated.
type tracedBackend struct {
	inner core.Backend
	layer string
	t     *tracer
	sh    *shard
}

func (b *tracedBackend) record(ctx context.Context, op string, keys int, fp0 uint64) (context.Context, func()) {
	id := b.t.nextID.Add(1)
	parent := parentSpan(ctx)
	start := nowNs()
	return withSpan(ctx, id), func() {
		b.sh.add(span{ID: id, Parent: parent, Layer: b.layer, Op: op, Node: string(b.inner.ID()),
			Keys: keys, Plan: -1, FP0: fp0, Start: start, End: nowNs()})
	}
}

func (b *tracedBackend) ID() ring.NodeID { return b.inner.ID() }

func (b *tracedBackend) Lookup(ctx context.Context, fp fingerprint.Fingerprint) (core.LookupResult, error) {
	ctx, done := b.record(ctx, "Lookup", 1, fp.Prefix64())
	defer done()
	return b.inner.Lookup(ctx, fp)
}

func (b *tracedBackend) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) (core.LookupResult, error) {
	ctx, done := b.record(ctx, "LookupOrInsert", 1, fp.Prefix64())
	defer done()
	return b.inner.LookupOrInsert(ctx, fp, val)
}

func (b *tracedBackend) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	ctx, done := b.record(ctx, "BatchLookupOrInsert", len(pairs), firstPrefix(pairs))
	defer done()
	return b.inner.BatchLookupOrInsert(ctx, pairs)
}

func (b *tracedBackend) Insert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) error {
	ctx, done := b.record(ctx, "Insert", 1, fp.Prefix64())
	defer done()
	return b.inner.Insert(ctx, fp, val)
}

func (b *tracedBackend) Stats(ctx context.Context) (core.NodeStats, error) { return b.inner.Stats(ctx) }
func (b *tracedBackend) Close() error                                      { return b.inner.Close() }

// tracedClient is the rpc span: the front's side of the wire.
type tracedClient struct {
	tracedBackend
	c *rpc.Client
}

func (t *tracer) traceClient(c *rpc.Client) *tracedClient {
	return &tracedClient{tracedBackend{inner: c, layer: layerRPC, t: t, sh: t.newShard()}, c}
}

func (c *tracedClient) ApplyRepair(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	ctx, done := c.record(ctx, "ApplyRepair", len(pairs), firstPrefix(pairs))
	defer done()
	return c.c.ApplyRepair(ctx, pairs)
}
func (c *tracedClient) RedirectsFollowed() uint64 { return c.c.RedirectsFollowed() }
func (c *tracedClient) CreditStalls() uint64      { return c.c.CreditStalls() }

// tracedNode is the node span: what rpc.Server calls.
type tracedNode struct {
	tracedBackend
	n *core.Node
}

func (t *tracer) traceNode(n *core.Node) *tracedNode {
	return &tracedNode{tracedBackend{inner: n, layer: layerNode, t: t, sh: t.newShard()}, n}
}

func (n *tracedNode) ApplyRepair(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	ctx, done := n.record(ctx, "ApplyRepair", len(pairs), firstPrefix(pairs))
	defer done()
	return n.n.ApplyRepair(ctx, pairs)
}
func (n *tracedNode) Entries(ctx context.Context, fn func(fingerprint.Fingerprint, core.Value) bool) error {
	return n.n.Entries(ctx, fn)
}
func (n *tracedNode) Remove(fp fingerprint.Fingerprint) (bool, error) { return n.n.Remove(fp) }

// tracedStore is the hashdb span: core.NodeConfig.Store around the
// *hashdb.DB. It forwards BatchGetter, BatchPutter, Deleter, Ranger and
// Recovery, or core would fall back to per-key loops.
type tracedStore struct {
	db   *hashdb.DB
	node string
	t    *tracer
	sh   *shard
	// putsInFlight lets the file decorator below tell a page read paid by
	// an insert from one paid by a lookup.
	putsInFlight atomic.Int32
}

// timed records one store call. parent is 0 for the verbs that take no
// context; they are background work as far as the budget is concerned.
func (s *tracedStore) timed(parent uint64, op string, keys int, fp0 uint64, fn func()) {
	sp := span{ID: s.t.nextID.Add(1), Parent: parent, Layer: layerHashdb, Op: op, Node: s.node, Keys: keys, Plan: -1, FP0: fp0}
	sp.Start = nowNs()
	fn()
	sp.End = nowNs()
	s.sh.add(sp)
}

func (s *tracedStore) Get(fp fingerprint.Fingerprint) (v hashdb.Value, ok bool, err error) {
	s.timed(0, "Get", 1, fp.Prefix64(), func() { v, ok, err = s.db.Get(fp) })
	return
}

func (s *tracedStore) Has(fp fingerprint.Fingerprint) (ok bool, err error) {
	s.timed(0, "Has", 1, fp.Prefix64(), func() { ok, err = s.db.Has(fp) })
	return
}

func (s *tracedStore) Put(fp fingerprint.Fingerprint, v hashdb.Value) (created bool, err error) {
	s.putsInFlight.Add(1)
	s.timed(0, "Put", 1, fp.Prefix64(), func() { created, err = s.db.Put(fp, v) })
	s.putsInFlight.Add(-1)
	return
}

func (s *tracedStore) GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) (vals []hashdb.Value, found []bool, err error) {
	var fp0 uint64
	if len(fps) > 0 {
		fp0 = fps[0].Prefix64()
	}
	s.timed(parentSpan(ctx), "GetBatch", len(fps), fp0, func() { vals, found, err = s.db.GetBatch(ctx, fps) })
	return
}

func (s *tracedStore) PutBatch(ctx context.Context, pairs []hashdb.Pair) (created []bool, pages int, err error) {
	var fp0 uint64
	if len(pairs) > 0 {
		fp0 = pairs[0].FP.Prefix64()
	}
	s.putsInFlight.Add(1)
	s.timed(parentSpan(ctx), "PutBatch", len(pairs), fp0, func() { created, pages, err = s.db.PutBatch(ctx, pairs) })
	s.putsInFlight.Add(-1)
	return
}

func (s *tracedStore) Delete(fp fingerprint.Fingerprint) (bool, error) { return s.db.Delete(fp) }
func (s *tracedStore) Range(fn func(fingerprint.Fingerprint, hashdb.Value) bool) error {
	return s.db.Range(fn)
}
func (s *tracedStore) Recovery() hashdb.RecoveryStats { return s.db.Recovery() }
func (s *tracedStore) Len() int                       { return s.db.Len() }

func (s *tracedStore) Sync() (err error) {
	s.timed(0, "Sync", 0, 0, func() { err = s.db.Sync() })
	return
}

func (s *tracedStore) Close() error { return s.db.Close() }

// The counters of a tracedFile. Durations are summed, not one span per
// page: a plan reads and writes thousands of pages.
const (
	fcReads = iota
	fcWrites
	fcSyncs
	fcReadNs
	fcWriteNs
	fcSyncNs
	fcBytesWritten
	// A read counts under the insert path when a Put or PutBatch was in
	// flight on the node, and under the lookup path otherwise.
	fcReadsUnderPut
	fcReadsUnderGet
	// fcBusyNs is the time at least one call was inside the file: the
	// union of the calls, which is what a hashdb call waits for when it
	// fans its page I/O out over workers.
	fcBusyNs
	fcCount
)

// fileCounters is one snapshot of a tracedFile, or the difference or sum of
// snapshots.
type fileCounters [fcCount]int64

func (a fileCounters) sub(b fileCounters) fileCounters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a fileCounters) add(b fileCounters) fileCounters {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// tracedFile is the file layer: hashdb.File around the *os.File.
type tracedFile struct {
	f     hashdb.File
	store *tracedStore
	c     [fcCount]atomic.Int64

	inFlight  atomic.Int32
	busySince atomic.Int64
}

func (f *tracedFile) enter() int64 {
	now := nowNs()
	if f.inFlight.Add(1) == 1 {
		f.busySince.Store(now)
	}
	return now
}

func (f *tracedFile) leave(start int64, count, ns int) {
	now := nowNs()
	f.c[count].Add(1)
	f.c[ns].Add(now - start)
	// A call entering between the decrement and the load moves busySince
	// past now; that sliver is dropped rather than counted negative.
	if f.inFlight.Add(-1) == 0 {
		if d := now - f.busySince.Load(); d > 0 {
			f.c[fcBusyNs].Add(d)
		}
	}
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	if f.store.putsInFlight.Load() > 0 {
		f.c[fcReadsUnderPut].Add(1)
	} else {
		f.c[fcReadsUnderGet].Add(1)
	}
	start := f.enter()
	n, err := f.f.ReadAt(p, off)
	f.leave(start, fcReads, fcReadNs)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.enter()
	n, err := f.f.WriteAt(p, off)
	f.leave(start, fcWrites, fcWriteNs)
	f.c[fcBytesWritten].Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.enter()
	err := f.f.Sync()
	f.leave(start, fcSyncs, fcSyncNs)
	return err
}

func (f *tracedFile) Truncate(size int64) error  { return f.f.Truncate(size) }
func (f *tracedFile) Stat() (os.FileInfo, error) { return f.f.Stat() }
func (f *tracedFile) Close() error               { return f.f.Close() }

func (f *tracedFile) snapshot() (out fileCounters) {
	for i := range f.c {
		out[i] = f.c[i].Load()
	}
	return out
}
