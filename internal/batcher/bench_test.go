package batcher

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/core"
)

// spin burns CPU for d: a sleeping executor would hide the cores the
// batches compete for.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// BenchmarkBatcherClosedLoop is the cost model of the queue's one rule:
// closed-loop callers of one key each against an executor that spins 50 µs
// per batch plus 0.25 µs per key, MaxBatch 64. ns/op is per key. One and 8
// callers are what an idle front sees (no wait); 64 is the worst case of
// one flight at a time (no size trigger, two alternating groups); 512 is
// load, where batches fill by size.
func BenchmarkBatcherClosedLoop(b *testing.B) {
	for _, callers := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			bt := New(func(_ context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
				spin(50*time.Microsecond + time.Duration(len(pairs))*250*time.Nanosecond)
				return make([]core.LookupResult, len(pairs)), nil
			}, Config{MaxBatch: 64})
			defer bt.Close()

			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						if _, err := bt.LookupOrInsert(context.Background(), fp(uint64(i)), 0); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			st := bt.Stats()
			b.ReportMetric(float64(st.Queries)/float64(st.Batches), "keys/batch")
		})
	}
}
