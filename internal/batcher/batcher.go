// Package batcher aggregates small fingerprint queries into batches.
//
// The paper's web front-end "aggregates fingerprints from clients and sends
// them as a batch to hybrid nodes" (§III.A), and the evaluation (§IV.B,
// Figure 5: batch sizes 1/128/2048) shows batch mode is worth an order of
// magnitude of throughput at the cost of queueing latency. The queue here
// pays that price only when there is throughput to buy, by Nagle's rule: a
// call that finds no flight outstanding is dispatched at once; a call that
// arrives while a flight is out queues behind it, and the queue goes out as
// one batch the moment a flight lands, when it reaches MaxBatch, or when its
// oldest call has waited MaxDelay — whichever is first. Under load a batch
// is what arrived during the previous round trip; at idle nothing waits.
//
// The cost of one flight at a time shows with about MaxBatch closed-loop
// callers: the size trigger never fires, the callers settle into two groups
// that alternate behind each other's flight, and a key costs one and a half
// to two times what a fixed window that fills by size on every arrival
// charges — still several times under unbatched (BenchmarkBatcherClosedLoop,
// docs/ARCHITECTURE.md "Aggregation"). Allowing more flights helps only as
// far as the executor runs them in parallel, which the batcher cannot see.
package batcher

import (
	"context"
	"errors"
	"sync"
	"time"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
)

// Func executes one aggregated batch, returning results in input order; it
// must not retain pairs after it returns. A core.Cluster's
// BatchLookupOrInsert is the usual implementation. The batcher invokes it
// with a background-derived context, never any single caller's: a batch
// aggregates queries from many callers, and one caller's cancellation must
// not take its batch-mates' results down.
type Func func(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error)

// Config tunes the aggregation queue.
type Config struct {
	// MaxBatch dispatches the queue when this many queries are pending,
	// without waiting for the flight in progress. Default 128.
	MaxBatch int
	// MaxDelay dispatches a queue whose oldest call has waited this long,
	// bounding the latency a query can spend queued. It is a bound behind a
	// stalled flight, not a wait: a call that finds the batcher idle never
	// sees it. Default 2ms.
	MaxDelay time.Duration
}

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 128
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
}

// ErrClosed is returned for queries submitted after Close.
var ErrClosed = errors.New("batcher: closed")

// call is one queued BatchLookupOrInsert: its pairs are the batch's
// pairs[off:off+n]. ch is buffered, so a flight never blocks on a caller
// that has gone away.
type call struct {
	off, n int
	ch     chan outcome
}

type outcome struct {
	res []core.LookupResult
	err error
}

// batch is a queue detached for dispatch: whole calls, in arrival order.
type batch struct {
	pairs []core.Pair
	calls []call
}

// Batcher coalesces concurrent lookup calls into batches. It is safe for
// concurrent use.
type Batcher struct {
	do  Func
	cfg Config

	mu      sync.Mutex
	queue   batch // non-empty only while flights > 0
	flights int   // batches dispatched and not yet landed
	timer   *time.Timer
	// timerGen invalidates stale timer callbacks: a timer that fired after
	// its queue was already dispatched (by a landing flight, MaxBatch or
	// Close) must not dispatch the next, younger queue before its MaxDelay
	// elapsed. Incremented by every dispatch; armed timers capture the value.
	timerGen uint64
	closed   bool

	batches uint64
	queries uint64

	flushWG sync.WaitGroup // one count per flight
}

// New creates a batcher around the given batch executor.
func New(do Func, cfg Config) *Batcher {
	cfg.fill()
	return &Batcher{do: do, cfg: cfg}
}

// LookupOrInsert is BatchLookupOrInsert for a single pair.
func (b *Batcher) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) (core.LookupResult, error) {
	rs, err := b.BatchLookupOrInsert(ctx, []core.Pair{{FP: fp, Val: val}})
	if err != nil {
		return core.LookupResult{}, err
	}
	return rs[0], nil
}

// BatchLookupOrInsert submits all of a caller's queries — a small plan — as
// one call and blocks until its batch completes or ctx is cancelled. The
// pairs are copied before it returns to waiting; results are in input order
// and belong to the caller. A call is never split: a fingerprint that
// appears twice travels in one batch, and the second occurrence sees the
// first as a duplicate. (A batch may therefore exceed MaxBatch by up to the
// size of the call that filled it.) Each pair counts as one query in Stats;
// an empty call returns an empty result without enqueueing.
//
// A cancelled caller returns ctx.Err() immediately without stranding
// batch-mates: the batch still executes and every other call in it gets its
// result. The abandoned queries may or may not have reached the cluster —
// exactly the guarantee (none) a cancelled caller must assume.
func (b *Batcher) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch := make(chan outcome, 1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if len(pairs) == 0 {
		b.mu.Unlock()
		return []core.LookupResult{}, nil
	}
	q := &b.queue
	q.calls = append(q.calls, call{off: len(q.pairs), n: len(pairs), ch: ch})
	q.pairs = append(q.pairs, pairs...)
	b.queries += uint64(len(pairs))
	switch {
	case b.flights == 0 || len(q.pairs) >= b.cfg.MaxBatch:
		go b.fly(b.takeLocked())
	case len(q.calls) == 1:
		gen := b.timerGen
		b.timer = time.AfterFunc(b.cfg.MaxDelay, func() { b.flushTimer(gen) })
	}
	b.mu.Unlock()

	select {
	case out := <-ch:
		return out.res, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flushTimer is the MaxDelay expiry path. gen guards against a callback
// that lost the race with another dispatch: by the time it runs, its queue
// is gone and the pending one (if any) belongs to a younger timer.
func (b *Batcher) flushTimer(gen uint64) {
	b.mu.Lock()
	if b.closed || b.timerGen != gen {
		b.mu.Unlock()
		return
	}
	bt := b.takeLocked()
	b.mu.Unlock()
	b.fly(bt)
}

// takeLocked detaches the non-empty queue as a flight the caller must fly.
// Caller holds b.mu.
func (b *Batcher) takeLocked() batch {
	b.timerGen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	bt := b.queue
	b.queue = batch{}
	b.batches++
	b.flights++
	b.flushWG.Add(1)
	return bt
}

// fly executes bt and then, on the same goroutine, whatever queued behind
// it, until a flight lands with nothing waiting.
func (b *Batcher) fly(bt batch) {
	for more := true; more; {
		// The batch runs detached from any one caller's context (see
		// Func): batch-mates that are still waiting get their results
		// even if the caller that happened to trigger the flight is gone.
		results, err := b.do(context.Background(), bt.pairs)
		if err == nil && len(results) != len(bt.pairs) {
			err = errors.New("batcher: executor returned wrong result count")
		}
		for _, c := range bt.calls {
			if err != nil {
				c.ch <- outcome{err: err}
			} else {
				// Capped, so a caller appending to its results cannot
				// write into a batch-mate's.
				c.ch <- outcome{res: results[c.off : c.off+c.n : c.off+c.n]}
			}
		}
		b.mu.Lock()
		b.flights--
		if more = len(b.queue.calls) > 0; more {
			// Counted before this flight's count is dropped: flushWG
			// never reads zero mid-chain, so Close waits for all of it.
			bt = b.takeLocked()
		}
		b.mu.Unlock()
		b.flushWG.Done()
	}
}

// Stats reports aggregation effectiveness.
type Stats struct {
	Queries uint64
	Batches uint64
}

// Stats returns a snapshot of the counters.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{Queries: b.queries, Batches: b.batches}
}

// Close dispatches the queue, waits for every flight — including those
// chained behind a landing one — and rejects further queries.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.closed = true
	if len(b.queue.calls) > 0 {
		go b.fly(b.takeLocked())
	}
	b.mu.Unlock()
	b.flushWG.Wait()
	return nil
}
