package batcher

import (
	"context"
	"errors"
	"testing"
	"time"

	"shhc/internal/core"
)

// TestPlanWaitsOneWindow is the regression test for the serial-await bug: a
// k-fingerprint plan below MaxBatch must form one batch and complete in
// about one MaxDelay, not k of them.
func TestPlanWaitsOneWindow(t *testing.T) {
	const k, delay = 8, 40 * time.Millisecond
	exec := &echoExec{}
	b := New(exec.do, Config{MaxBatch: 64, MaxDelay: delay})
	defer b.Close()

	pairs := make([]core.Pair, k)
	for i := range pairs {
		pairs[i] = core.Pair{FP: fp(uint64(i)), Val: core.Value(100 + i)}
	}
	start := time.Now()
	rs, err := b.BatchLookupOrInsert(context.Background(), pairs)
	took := time.Since(start)
	if err != nil {
		t.Fatalf("BatchLookupOrInsert: %v", err)
	}
	for i, r := range rs {
		if r.Value != core.Value(100+i) {
			t.Fatalf("result %d carries value %d, want %d (results out of input order)", i, r.Value, 100+i)
		}
	}
	if sizes := exec.batchSizes(); len(sizes) != 1 || sizes[0] != k {
		t.Fatalf("batch sizes = %v, want [%d]", sizes, k)
	}
	if took < delay || took >= 3*delay {
		t.Fatalf("plan of %d took %v, want about one MaxDelay (%v), not %d of them", k, took, delay, k)
	}
	if st := b.Stats(); st.Queries != k || st.Batches != 1 {
		t.Fatalf("Stats = %+v, want %d queries in 1 batch", st, k)
	}
}

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
	gate := make(chan struct{})
	executed := make(chan int, 1)
	b := New(func(_ context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
		<-gate
		executed <- len(pairs)
		return make([]core.LookupResult, len(pairs)), nil
	}, Config{MaxBatch: 4, MaxDelay: time.Hour})

	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := b.BatchLookupOrInsert(ctx, []core.Pair{{FP: fp(1)}, {FP: fp(2)}, {FP: fp(3)}})
		abandoned <- err
	}()
	waitFor(t, func() bool { return b.Stats().Queries == 3 })
	mate := make(chan error, 1)
	go func() {
		_, err := b.LookupOrInsert(context.Background(), fp(4), 4) // fills the batch
		mate <- err
	}()
	waitFor(t, func() bool { return b.Stats().Batches == 1 })

	cancel()
	select {
	case err := <-abandoned:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled plan got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled plan stayed blocked on its flushed batch")
	}
	close(gate)
	select {
	case err := <-mate:
		if err != nil {
			t.Fatalf("batch-mate: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("batch-mate never got its result after the plan abandoned the batch")
	}
	if n := <-executed; n != 4 {
		t.Fatalf("executor saw %d queries, want 4 (abandonment must not shrink the batch)", n)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
