package core

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

func benchNode(b *testing.B, cacheSize int, noBloom bool) *Node {
	b.Helper()
	n, err := NewNode(NodeConfig{
		ID:            "bench",
		Store:         hashdb.CreateMem(nil, hashdb.Options{}),
		CacheSize:     cacheSize,
		noBloom:       noBloom,
		BloomExpected: 1 << 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })
	return n
}

func BenchmarkNodeInsertUnique(b *testing.B) {
	n := benchNode(b, 1<<16, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(uint64(i)), Value(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeLookupCacheHit(b *testing.B) {
	n := benchNode(b, 1<<16, false)
	const working = 1 << 10 // fits in cache
	for i := 0; i < working; i++ {
		n.LookupOrInsert(context.Background(), fp(uint64(i)), Value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(uint64(i%working)), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeLookupStoreHit(b *testing.B) {
	n := benchNode(b, 16, false) // tiny cache: force store path
	const working = 1 << 16
	for i := 0; i < working; i++ {
		n.LookupOrInsert(context.Background(), fp(uint64(i)), Value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(uint64(i%working)), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeBatch(b *testing.B) {
	for _, size := range []int{128, 2048} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			n := benchNode(b, 1<<16, false)
			pairs := make([]Pair, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range pairs {
					pairs[j] = Pair{FP: fp(uint64(i*size + j)), Val: Value(j)}
				}
				if _, err := n.BatchLookupOrInsert(context.Background(), pairs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size), "pairs/op")
		})
	}
	// incr_hot's node call: a 1 024-pair batch answered wholly by the LRU.
	b.Run("cache-hit", func(b *testing.B) {
		const size = 1024
		n := benchNode(b, 1<<16, false)
		pairs := make([]Pair, 1<<15)
		for i := range pairs {
			pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i)}
		}
		if _, err := n.BatchLookupOrInsert(context.Background(), pairs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := i * size % len(pairs)
			rs, err := n.BatchLookupOrInsert(context.Background(), pairs[at:at+size])
			if err != nil {
				b.Fatal(err)
			}
			if rs[0].Source != SourceCache {
				b.Fatalf("first answer %+v, want a cache hit", rs[0])
			}
		}
		b.ReportMetric(size, "pairs/op")
	})
}

// BenchmarkNodeBatchMiss is the node's share of the end-to-end benchmark's
// miss-path workloads, without the stack around it: 1 024-pair batches on a
// node with the shhc-node default cache over an on-disk table. store-hit
// replays a preloaded set three times the cache in order, so every lookup
// misses the LRU and is answered by hashdb.GetBatch (second_full); all-new
// inserts fingerprints never seen, Bloom-negative into hashdb.PutBatch
// (first_full). One op is one pair.
func BenchmarkNodeBatchMiss(b *testing.B) {
	const batch, cache = 1024, 1 << 16
	for _, mode := range []string{"store-hit", "all-new"} {
		b.Run(mode, func(b *testing.B) {
			db, err := createTable(filepath.Join(b.TempDir(), "bench.shdb"), hashdb.Options{})
			if err != nil {
				b.Fatal(err)
			}
			n, err := NewNode(NodeConfig{ID: "bench", Store: db, CacheSize: cache, BloomExpected: 1 << 20})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { n.Close() })
			ctx := context.Background()
			pairs := make([]Pair, 3*cache)
			if mode == "all-new" {
				pairs = make([]Pair, (b.N+batch-1)/batch*batch)
			}
			for i := range pairs {
				pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i)}
			}
			if mode == "store-hit" {
				for at := 0; at < len(pairs); at += batch {
					if _, err := n.BatchLookupOrInsert(ctx, pairs[at:at+batch]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done, at := 0, 0; done < b.N; done, at = done+batch, (at+batch)%len(pairs) {
				rs, err := n.BatchLookupOrInsert(ctx, pairs[at:at+batch])
				if err != nil {
					b.Fatal(err)
				}
				if rs[0].Exists != (mode == "store-hit") || rs[0].Source == SourceCache {
					b.Fatalf("%s: first answer %+v", mode, rs[0])
				}
			}
		})
	}
}

// BenchmarkForegroundUnderWave is first_full_wb's contention without the
// stack around it: a write-back node over an on-disk table, an inserter that
// keeps clean-ahead waves firing, and a prober that wakes every 500 µs to
// have a 1 024-pair batch answered by the LRU. One op is one probe, timed
// from the instant it was due, so what p50-µs and p95-µs report is how long
// a request that became runnable mid-wave waited for a processor, plus the
// ≈ 40 µs the batch itself takes. The inserter's think time holds it near
// first_full_wb's rate per node (≈ 400k pairs/s), where clean-ahead keeps up
// and no eviction finds the buffer full; at 100 µs most waves have an evictor
// parked on them, and run at full depth for it.
func BenchmarkForegroundUnderWave(b *testing.B) {
	const batch, cache, period, think = 1024, 1 << 16, 500 * time.Microsecond, 2 * time.Millisecond
	db, err := createTable(filepath.Join(b.TempDir(), "bench.shdb"), hashdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	n, err := NewNode(NodeConfig{ID: "bench", Store: db, CacheSize: cache, BloomExpected: 1 << 20, WriteBack: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })
	ctx := context.Background()
	hot := make([]Pair, batch)
	for i := range hot {
		hot[i] = Pair{FP: fp(uint64(i)), Val: Value(i)}
	}
	if _, err := n.BatchLookupOrInsert(ctx, hot); err != nil {
		b.Fatal(err)
	}
	stop, inserted := make(chan struct{}), make(chan error, 1)
	go func() {
		fresh := make([]Pair, batch)
		for next := uint64(batch); ; next += batch {
			select {
			case <-stop:
				inserted <- nil
				return
			default:
			}
			for i := range fresh {
				fresh[i] = Pair{FP: fp(next + uint64(i)), Val: Value(i)}
			}
			if _, err := n.BatchLookupOrInsert(ctx, fresh); err != nil {
				inserted <- err
				return
			}
			time.Sleep(think)
		}
	}()
	waited := make([]time.Duration, b.N)
	b.ResetTimer()
	due := time.Now()
	for i := range waited {
		due = due.Add(period)
		time.Sleep(time.Until(due))
		rs, err := n.BatchLookupOrInsert(ctx, hot)
		waited[i] = time.Since(due)
		if err != nil {
			b.Fatal(err)
		}
		if rs[0].Source != SourceCache {
			b.Fatalf("first answer %+v, want a cache hit", rs[0])
		}
	}
	b.StopTimer()
	close(stop)
	if err := <-inserted; err != nil {
		b.Fatal(err)
	}
	st, err := n.Stats(ctx)
	if err != nil {
		b.Fatal(err)
	}
	slices.Sort(waited)
	b.ReportMetric(float64(waited[len(waited)/2].Nanoseconds())/1e3, "p50-µs")
	b.ReportMetric(float64(waited[len(waited)*95/100].Nanoseconds())/1e3, "p95-µs")
	b.ReportMetric(float64(st.Destage.Waves), "waves")
}

// BenchmarkNodeLookupParallel measures lookup throughput under concurrent
// load, before (stripes=1, the seed's single-lock node) and after (striped)
// the hot-path sharding. Run with -cpu 1,8 to see the scaling:
//
//	go test -bench BenchmarkNodeLookupParallel -cpu 1,8 ./internal/core
func BenchmarkNodeLookupParallel(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		stripes int
	}{
		{"striped", 0},   // after: GOMAXPROCS-based stripe count
		{"stripes=1", 1}, // before: fully serialized node
	} {
		b.Run(cfg.name, func(b *testing.B) {
			n, err := NewNode(NodeConfig{
				ID:            "parallel",
				Store:         hashdb.CreateMem(nil, hashdb.Options{}),
				CacheSize:     1 << 16,
				BloomExpected: 1 << 17,
				stripes:       cfg.stripes,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { n.Close() })
			const working = 1 << 15 // fits in cache: measures the RAM tier
			for i := uint64(0); i < working; i++ {
				if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
					b.Fatal(err)
				}
			}
			var offset atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := offset.Add(working / 8)
				for pb.Next() {
					if _, err := n.LookupOrInsert(context.Background(), fp(i%working), 0); err != nil {
						b.Fatal(err)
					}
					i += 7
				}
			})
		})
	}
}

// BenchmarkNodeBatchParallel measures one big batch partitioned across
// stripes (the LookupBatch/BatchLookupOrInsert fan-out path).
func BenchmarkNodeBatchParallel(b *testing.B) {
	n := benchNode(b, 1<<16, false)
	const size = 2048
	pairs := make([]Pair, size)
	for j := range pairs {
		pairs[j] = Pair{FP: fp(uint64(j)), Val: Value(j)}
	}
	if _, err := n.BatchLookupOrInsert(context.Background(), pairs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.BatchLookupOrInsert(context.Background(), pairs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "pairs/op")
}

func BenchmarkClusterRoutingOverhead(b *testing.B) {
	backends := make([]Backend, 4)
	for i := range backends {
		n, err := NewNode(NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("n%d", i)),
			Store:         hashdb.CreateMem(nil, hashdb.Options{}),
			CacheSize:     1 << 12,
			BloomExpected: 1 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		backends[i] = n
	}
	c, err := NewCluster(ClusterConfig{}, backends...)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.LookupOrInsert(context.Background(), fp(uint64(i)), Value(i)); err != nil {
			b.Fatal(err)
		}
	}
}
