package batcher

import (
	"context"
	"errors"
	"testing"
	"time"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
)

// TestCancelledCallerDoesNotStrandBatchMates is the regression test for
// the abandoned-slot bug class: a caller that gives up mid-batch must get
// ctx.Err() promptly, while its batch-mates — dispatched in the same batch —
// still receive their results.
func TestCancelledCallerDoesNotStrandBatchMates(t *testing.T) {
	h := newHeldExec()
	b := New(h.do, Config{MaxBatch: 2, MaxDelay: time.Hour})
	defer b.Close()   // after everything lands, so Close's drain cannot hang
	defer h.openAll() // runs first (LIFO)

	leadFlight(t, h, b)
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := submit(ctx, b, 1, 1)
	queued(t, b, 2)
	// The second query completes the MaxBatch=2 batch and triggers its
	// dispatch; it waits under a background context.
	mate := submit(context.Background(), b, 2, 1)
	f2 := h.next(t)

	// Cancel the first caller while its batch is held in flight: it must
	// return immediately, well before the batch completes.
	cancel()
	if r := await(t, abandoned); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("abandoned caller got %v, want context.Canceled", r.err)
	}

	// Land the batch: the surviving batch-mate must get its result.
	close(f2.land)
	wantEcho(t, await(t, mate), 2, 1)
	if len(f2.pairs) != 2 {
		t.Fatalf("executor saw %d queries, want 2 (abandonment must not shrink the batch)", len(f2.pairs))
	}
}

// TestCancelledBeforeEnqueue: a context dead on arrival is rejected
// without ever occupying a batch slot.
func TestCancelledBeforeEnqueue(t *testing.T) {
	b := New(func(_ context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
		return make([]core.LookupResult, len(pairs)), nil
	}, Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.LookupOrInsert(ctx, fingerprint.FromUint64(1), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-on-arrival query = %v, want context.Canceled", err)
	}
	if q := b.Stats().Queries; q != 0 {
		t.Fatalf("dead-on-arrival query occupied a slot (Queries=%d)", q)
	}
}
