// Package parallel provides the bounded worker pool the storage layers use
// to overlap independent I/O operations. It has two lanes.
//
// The lane rule: a ctx from Background marks bulk work nobody is blocked on.
// Do runs it on the caller's goroutine alone and yields the processor after
// every item, so a request that became runnable meanwhile runs first: over
// the page cache, which never blocks, IODepth workers are IODepth runnable
// goroutines, and requests waited 10–30 ms behind destage waves (PR 21).
//
// The widening rule: once the flag Background was given is set, Do hands the
// items not yet started to the workers a foreground call gets, for good. It
// is set by whoever comes to wait for the work (core's destager) and, through
// Widen, by work whose I/O blocks (hashdb.eachUnit), which one worker would
// serialise.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// IODepth is the default bound on how many storage operations one batch
// overlaps: a SATA NCQ queue's depth, enough to keep a device that serves
// requests in parallel busy when page I/O blocks (O_DIRECT), small enough not
// to flood the runtime with goroutines. device.Slow serves a batch this many
// keys at a time. It bounds foreground overlap: see the lane rule.
const IODepth = 16

type laneKey struct{}

// Background returns a copy of ctx whose Do calls run on the background lane
// until *widen is set.
func Background(ctx context.Context, widen *atomic.Bool) context.Context {
	return context.WithValue(ctx, laneKey{}, widen)
}

// Widen sets the flag of the background lane ctx is on, if any.
func Widen(ctx context.Context) {
	if widen, _ := ctx.Value(laneKey{}).(*atomic.Bool); widen != nil {
		widen.Store(true)
	}
}

// Do runs fn(0..count-1) across at most `workers` goroutines, returning
// the first error. Remaining work is abandoned after an error (workers
// finish their current item and stop pulling). A cancelled ctx likewise
// stops workers from pulling new items — an operation already issued runs
// to completion (device I/O cannot be revoked), but no further items start
// — and Do returns ctx.Err() if cancellation left work undone.
func Do(ctx context.Context, count, workers int, fn func(int) error) error {
	done := ctx.Done()
	next := 0
	if widen, _ := ctx.Value(laneKey{}).(*atomic.Bool); widen != nil {
		for ; next < count && !widen.Load(); next++ {
			if done != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := fn(next); err != nil {
				return err
			}
			runtime.Gosched()
		}
	}
	if workers > count-next {
		workers = count - next
	}
	if workers <= 1 {
		for ; next < count; next++ {
			if done != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := fn(next); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		nextMu   sync.Mutex
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if done != nil {
					if err := ctx.Err(); err != nil {
						fail(err)
						return
					}
				}
				nextMu.Lock()
				if next >= count {
					nextMu.Unlock()
					return
				}
				i := next
				next++
				nextMu.Unlock()
				if failed() {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
