package parallel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lanes are the two kinds of ctx Do distinguishes.
var lanes = []struct {
	name string
	ctx  func(context.Context) context.Context
}{
	{"foreground", func(ctx context.Context) context.Context { return ctx }},
	{"background", func(ctx context.Context) context.Context { return Background(ctx, new(atomic.Bool)) }},
}

// goid is the calling goroutine's id, read off its stack header.
func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, lane := range lanes {
		for _, workers := range []int{1, 4, 16, 100} {
			const count = 500
			var seen [count]atomic.Int32
			if err := Do(lane.ctx(context.Background()), count, workers, func(i int) error {
				seen[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("%s workers=%d: %v", lane.name, workers, err)
			}
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("%s workers=%d: index %d ran %d times", lane.name, workers, i, got)
				}
			}
		}
	}
}

func TestDoReturnsFirstError(t *testing.T) {
	for _, lane := range lanes {
		boom := errors.New("boom")
		var ran atomic.Int64
		err := Do(lane.ctx(context.Background()), 1000, 8, func(i int) error {
			ran.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("%s: err = %v, want boom", lane.name, err)
		}
		if ran.Load() >= 1000 {
			t.Fatalf("%s: no work was abandoned after the error", lane.name)
		}
	}
}

func TestDoZeroCount(t *testing.T) {
	for _, lane := range lanes {
		if err := Do(lane.ctx(context.Background()), 0, 8, func(int) error { return errors.New("never") }); err != nil {
			t.Fatalf("%s: Do(0): %v", lane.name, err)
		}
	}
}

func TestDoStopsPullingWhenCancelled(t *testing.T) {
	for _, lane := range lanes {
		ctx, cancel := context.WithCancel(lane.ctx(context.Background()))
		var ran atomic.Int64
		err := Do(ctx, 1000, 8, func(i int) error {
			ran.Add(1)
			if i == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", lane.name, err)
		}
		if ran.Load() >= 1000 {
			t.Fatalf("%s: every item ran after the cancellation", lane.name)
		}
	}
}

// TestBackgroundYieldsBetweenItems pins the lane rule on one processor: a
// goroutine made runnable from inside item k of a background Do runs before
// item k+2 starts, because Do yields after item k. On the foreground lane
// it would wait for Do to return.
func TestBackgroundYieldsBetweenItems(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const count, k = 64, 10
	var (
		order    atomic.Int64
		ranAt    atomic.Int64
		startsAt [count]int64
		caller   = goid()
		finished = make(chan struct{})
	)
	err := Do(Background(context.Background(), new(atomic.Bool)), count, IODepth, func(i int) error {
		startsAt[i] = order.Add(1)
		if id := goid(); id != caller {
			t.Errorf("item %d ran on goroutine %s, not the caller's %s", i, id, caller)
		}
		if i == k {
			go func() {
				ranAt.Store(order.Add(1))
				close(finished)
			}()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-finished
	if at := ranAt.Load(); at > startsAt[k+2] {
		t.Fatalf("the goroutine readied in item %d ran at step %d, after item %d started at step %d: Do did not yield", k, at, k+2, startsAt[k+2])
	}
}

// TestBackgroundWidens pins the widening rule: items started before the flag
// is set run on the caller's goroutine, in order; every item after that runs
// once, on a worker. Widen reaches the flag through a derived ctx and is a
// no-op on the foreground lane.
func TestBackgroundWidens(t *testing.T) {
	const count, k = 200, 7
	var (
		flag   atomic.Bool
		seen   [count]atomic.Int32
		inline atomic.Int32
		caller = goid()
	)
	ctx, cancel := context.WithCancel(Background(context.Background(), &flag))
	defer cancel()
	Widen(context.Background())
	err := Do(ctx, count, 4, func(i int) error {
		seen[i].Add(1)
		if on := goid() == caller; on != (i <= k) {
			t.Errorf("item %d on the caller's goroutine: %v", i, on)
		} else if on && int(inline.Add(1)) != i+1 {
			t.Errorf("item %d ran out of order on the background lane", i)
		}
		if i == k {
			Widen(ctx)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
	if !flag.Load() {
		t.Fatal("Widen through a derived ctx did not set the lane's flag")
	}
}

// TestForegroundStartsEveryWorker holds each item at a barrier only
// min(workers, count) concurrent goroutines can pass — on the foreground
// lane, and on a background lane whose flag was set before the call.
func TestForegroundStartsEveryWorker(t *testing.T) {
	var widened atomic.Bool
	widened.Store(true)
	for _, ctx := range []context.Context{context.Background(), Background(context.Background(), &widened)} {
		startsEveryWorker(t, ctx)
	}
}

func startsEveryWorker(t *testing.T, ctx context.Context) {
	for _, tc := range []struct{ count, workers, want int }{{8, 4, 4}, {3, 16, 3}, {64, IODepth, IODepth}} {
		var (
			mu      sync.Mutex
			ids     = map[string]bool{}
			arrived sync.WaitGroup
		)
		arrived.Add(tc.want)
		all := make(chan struct{})
		go func() { arrived.Wait(); close(all) }()
		err := Do(ctx, tc.count, tc.workers, func(i int) error {
			mu.Lock()
			first := !ids[goid()]
			ids[goid()] = true
			mu.Unlock()
			if first {
				arrived.Done()
			}
			select {
			case <-all:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("item %d: fewer than %d workers arrived", i, tc.want)
			}
		})
		if err != nil {
			t.Fatalf("count=%d workers=%d: %v", tc.count, tc.workers, err)
		}
		if len(ids) != tc.want {
			t.Fatalf("count=%d workers=%d: %d goroutines ran items, want %d", tc.count, tc.workers, len(ids), tc.want)
		}
	}
}
