package batcher

import (
	"context"
	"errors"
	"testing"
	"time"

	"shhc/internal/core"
)

// TestPlanDuplicatesShareABatchInOrder: both occurrences of a fingerprint
// reach the executor in one batch, first occurrence first, even when the
// plan straddles MaxBatch — which is what lets the cluster answer the second
// one "duplicate".
func TestPlanDuplicatesShareABatchInOrder(t *testing.T) {
	var batches [][]core.Pair
	exec := func(_ context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
		batches = append(batches, append([]core.Pair(nil), pairs...))
		seen := make(map[core.Pair]bool)
		out := make([]core.LookupResult, len(pairs))
		for i, p := range pairs {
			key := core.Pair{FP: p.FP}
			out[i] = core.LookupResult{Exists: seen[key], Value: p.Val}
			seen[key] = true
		}
		return out, nil
	}
	b := New(exec, Config{MaxBatch: 4, MaxDelay: time.Hour})
	pairs := []core.Pair{
		{FP: fp(1), Val: 1}, {FP: fp(2), Val: 2}, {FP: fp(3), Val: 3},
		{FP: fp(1), Val: 4}, {FP: fp(5), Val: 5}, {FP: fp(3), Val: 6},
	}
	rs, err := b.BatchLookupOrInsert(context.Background(), pairs)
	if err != nil {
		t.Fatalf("BatchLookupOrInsert: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err) // waits for the flush goroutine: batches is ours now
	}
	for i, want := range []bool{false, false, false, true, false, true} {
		if rs[i].Exists != want || rs[i].Value != pairs[i].Val {
			t.Fatalf("result %d = %+v, want Exists=%v Value=%d", i, rs[i], want, pairs[i].Val)
		}
	}
	if len(batches) != 1 || len(batches[0]) != len(pairs) {
		t.Fatalf("executor saw %d batches (%v), want the whole plan in one", len(batches), batches)
	}
}

// TestCancelledPlanAbandonsAllSlots: cancelling a plan returns at once,
// every one of its slots still executes, and a batch-mate from another
// caller gets its result.
func TestCancelledPlanAbandonsAllSlots(t *testing.T) {
	h := newHeldExec()
	b := New(h.do, Config{MaxBatch: 4, MaxDelay: time.Hour})

	leadFlight(t, h, b)
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := submit(ctx, b, 1, 3)
	queued(t, b, 4)
	mate := submit(context.Background(), b, 4, 1) // fills the batch
	f2 := h.next(t)

	cancel()
	if r := await(t, abandoned); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled plan got %v, want context.Canceled", r.err)
	}
	h.openAll()
	wantEcho(t, await(t, mate), 4, 1)
	if n := len(f2.pairs); n != 4 {
		t.Fatalf("executor saw %d queries, want 4 (abandonment must not shrink the batch)", n)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
