// Package batcher aggregates single fingerprint queries into batches.
//
// The paper's web front-end "aggregates fingerprints from clients and sends
// them as a batch to hybrid nodes" (§III.A), and the evaluation (§IV.B)
// shows batch mode is worth an order of magnitude of throughput at the cost
// of queueing latency — the tradeoff this package's MaxBatch/MaxDelay knobs
// expose (batch sizes 1/128/2048 in Figure 5).
package batcher

import (
	"context"
	"errors"
	"sync"
	"time"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/pow2"
)

// Func executes one aggregated batch, returning results in input order.
// A core.Cluster's BatchLookupOrInsert is the usual implementation. The
// batcher invokes it with a background-derived context, never any single
// caller's: a batch aggregates queries from many callers, and one
// caller's cancellation must not take its batch-mates' results down.
type Func func(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error)

// Config tunes the aggregation window.
type Config struct {
	// MaxBatch flushes when this many queries are pending. Default 128.
	// With Stripes > 1 the limit applies per stripe.
	MaxBatch int
	// MaxDelay flushes a non-empty partial batch after this long,
	// bounding the latency a query can spend queued. Default 2ms.
	MaxDelay time.Duration
	// Stripes splits the aggregation queue into independent stripes
	// (rounded down to a power of two), each with its own lock, pending
	// batch, and flush timer. A fingerprint always joins the same stripe,
	// so stripe batches arrive pre-partitioned for the striped node's
	// batch fan-out. Raise it when tens of client goroutines contend on
	// one front-end batcher. Default 1 (a single shared queue — maximal
	// aggregation, exactly the paper's behavior).
	Stripes int
}

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 128
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	c.Stripes = pow2.Floor(c.Stripes)
}

// ErrClosed is returned for queries submitted after Close.
var ErrClosed = errors.New("batcher: closed")

// waiter is one queued query. Every query of one call shares ch, which is
// buffered for all of them, so the flush goroutine never blocks on a caller
// that has gone away.
type waiter struct {
	pair core.Pair
	idx  int // position in the call's pairs
	ch   chan outcome
}

type outcome struct {
	idx int
	res core.LookupResult
	err error
}

// batcherStripe is one independent aggregation queue.
type batcherStripe struct {
	mu      sync.Mutex
	pending []waiter
	timer   *time.Timer
	// timerGen invalidates stale timer callbacks: a timer that fired
	// after its batch was already flushed (by MaxBatch or Close) must not
	// flush the next, younger partial batch before its MaxDelay elapsed.
	// Incremented by every flush; armed timers capture the value.
	timerGen uint64
	closed   bool

	batches uint64
	queries uint64
}

// Batcher coalesces concurrent LookupOrInsert calls into batches.
// It is safe for concurrent use.
type Batcher struct {
	do      Func
	cfg     Config
	stripes []batcherStripe
	mask    uint64
	flushWG sync.WaitGroup
}

// New creates a batcher around the given batch executor.
func New(do Func, cfg Config) *Batcher {
	cfg.fill()
	return &Batcher{
		do:      do,
		cfg:     cfg,
		stripes: make([]batcherStripe, cfg.Stripes),
		mask:    uint64(cfg.Stripes - 1),
	}
}

// Stripes returns the number of aggregation stripes.
func (b *Batcher) Stripes() int { return len(b.stripes) }

func (b *Batcher) stripe(fp fingerprint.Fingerprint) *batcherStripe {
	return &b.stripes[fp.Bucket64()&b.mask]
}

// LookupOrInsert enqueues one query and blocks until its batch completes
// or ctx is cancelled: BatchLookupOrInsert for a single pair.
func (b *Batcher) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) (core.LookupResult, error) {
	rs, err := b.BatchLookupOrInsert(ctx, []core.Pair{{FP: fp, Val: val}})
	if err != nil {
		return core.LookupResult{}, err
	}
	return rs[0], nil
}

// BatchLookupOrInsert enqueues all of a caller's queries — a small plan —
// and then blocks until every one has its result or ctx is cancelled, so the
// plan waits for one aggregation window and not one per fingerprint. Results
// are in input order. A stripe takes its share of the pairs in one piece, in
// input order, and flushes at most once after it: a fingerprint that appears
// twice always travels in one batch, and the second occurrence sees the
// first as a duplicate. (A batch may therefore exceed MaxBatch by up to the
// size of the call that filled it.) Each pair counts as one query in Stats.
//
// A cancelled caller returns ctx.Err() immediately and abandons all its
// slots without stranding batch-mates: the batches still execute (the
// result channel is buffered for every slot, so no flush goroutine ever
// blocks on a departed caller) and every other query in them gets its
// result. The abandoned queries may or may not have reached the cluster —
// exactly the guarantee (none) a cancelled caller must assume.
func (b *Batcher) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch := make(chan outcome, len(pairs))
	for si := range b.stripes {
		s := &b.stripes[si]
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		queued := len(s.pending)
		for i, p := range pairs {
			if b.stripe(p.FP) == s {
				s.pending = append(s.pending, waiter{pair: p, idx: i, ch: ch})
			}
		}
		s.queries += uint64(len(s.pending) - queued)
		if len(s.pending) >= b.cfg.MaxBatch {
			b.flushLocked(s)
		} else if len(s.pending) > queued && s.timer == nil {
			gen := s.timerGen
			s.timer = time.AfterFunc(b.cfg.MaxDelay, func() { b.flushTimer(s, gen) })
		}
		s.mu.Unlock()
	}

	results := make([]core.LookupResult, len(pairs))
	for range pairs {
		var out outcome
		select {
		case out = <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if out.err != nil {
			return nil, out.err
		}
		results[out.idx] = out.res
	}
	return results, nil
}

// flushTimer is the MaxDelay expiry path. gen guards against a callback
// that lost the race with a MaxBatch flush or Close: by the time it runs,
// its batch is gone and the pending queue (if any) belongs to a younger
// timer.
func (b *Batcher) flushTimer(s *batcherStripe, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.timerGen != gen {
		return
	}
	b.flushLocked(s)
}

// flushLocked dispatches the stripe's pending batch. Caller holds s.mu.
func (b *Batcher) flushLocked(s *batcherStripe) {
	s.timerGen++
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if len(s.pending) == 0 {
		return
	}
	batch := s.pending
	s.pending = nil
	s.batches++

	b.flushWG.Add(1)
	go func() {
		defer b.flushWG.Done()
		pairs := make([]core.Pair, len(batch))
		for i, w := range batch {
			pairs[i] = w.pair
		}
		// The batch runs detached from any one caller's context (see
		// Func): batch-mates that are still waiting get their results
		// even if the caller that happened to trigger the flush is gone.
		results, err := b.do(context.Background(), pairs)
		if err == nil && len(results) != len(batch) {
			err = errors.New("batcher: executor returned wrong result count")
		}
		for i, w := range batch {
			if err != nil {
				w.ch <- outcome{idx: w.idx, err: err}
			} else {
				w.ch <- outcome{idx: w.idx, res: results[i]}
			}
		}
	}()
}

// Stats reports aggregation effectiveness.
type Stats struct {
	Queries uint64
	Batches uint64
}

// MeanBatchSize is queries per dispatched batch.
func (s Stats) MeanBatchSize() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Queries) / float64(s.Batches)
}

// Stats returns a snapshot of the counters summed over stripes.
func (b *Batcher) Stats() Stats {
	var st Stats
	for i := range b.stripes {
		s := &b.stripes[i]
		s.mu.Lock()
		st.Queries += s.queries
		st.Batches += s.batches
		s.mu.Unlock()
	}
	return st
}

// Close flushes any partial batches, waits for in-flight batches, and
// rejects further queries.
func (b *Batcher) Close() error {
	alreadyClosed := true
	for i := range b.stripes {
		s := &b.stripes[i]
		s.mu.Lock()
		if !s.closed {
			alreadyClosed = false
			s.closed = true
			b.flushLocked(s)
		}
		s.mu.Unlock()
	}
	if alreadyClosed {
		return ErrClosed
	}
	b.flushWG.Wait()
	return nil
}
