package hashdb

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/directio"
	"shhc/internal/parallel"
)

func benchDB(b *testing.B) *DB {
	b.Helper()
	db, err := create(filepath.Join(b.TempDir(), "bench.shdb"), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func BenchmarkDBPut(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Put(fp(uint64(i)), Value(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBGetHit(b *testing.B) {
	db := benchDB(b)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		db.Put(fp(uint64(i)), Value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Get(fp(uint64(i % n))); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkDBGetMiss(b *testing.B) {
	db := benchDB(b)
	for i := 0; i < 1<<14; i++ {
		db.Put(fp(uint64(i)), Value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := db.Get(fp(uint64(1<<32 + i))); err != nil || ok {
			b.Fatal(ok, err)
		}
	}
}

// BenchmarkWavePutBatch is the measurement blockingChain rests on: one op is
// one PutBatch of `runs` one-key chains, a destage wave's shape, on either
// lane of package parallel, over storage that does not block (the page
// cache) and storage that does (O_DIRECT where the filesystem has it, and a
// file that sleeps a SATA SSD's 76 µs a page read and 196 µs a page written).
// chain-µs is one chain alone, the fastest of 16.
// Every table keeps the shape it starts with: a split would move the
// chains the pairs were chosen for.
func BenchmarkWavePutBatch(b *testing.B) {
	pinShape(b)
	buffered := func(read, write time.Duration) func(*testing.B, string) File {
		return func(b *testing.B, path string) File {
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			if read > 0 {
				return sleepFile{f, read, write}
			}
			return f
		}
	}
	for _, backend := range []struct {
		name string
		open func(*testing.B, string) File
	}{
		{"pagecache", buffered(0, 0)},
		{"direct", func(b *testing.B, path string) File {
			f, err := directio.Open(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644, directio.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if !f.Direct() {
				b.Skip("no O_DIRECT on this filesystem")
			}
			return f
		}},
		{"ssd", buffered(76*time.Microsecond, 196*time.Microsecond)},
	} {
		for _, runs := range []int{128, 8192} {
			for _, lane := range []string{"foreground", "background"} {
				b.Run(fmt.Sprintf("%s/runs=%d/%s", backend.name, runs, lane), func(b *testing.B) {
					path := filepath.Join(b.TempDir(), "wave.shdb")
					db, err := CreateFile(backend.open(b, path), path, Options{Buckets: 1 << 16})
					if err != nil {
						b.Fatal(err)
					}
					defer db.Close()
					pairs := distinctChains(db, runs+16)
					fastest := time.Duration(math.MaxInt64)
					for i := range pairs[runs:] {
						start := time.Now()
						if _, _, err := db.PutBatch(context.Background(), pairs[runs+i:runs+i+1]); err != nil {
							b.Fatal(err)
						}
						fastest = min(fastest, time.Since(start))
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ctx := context.Background()
						if lane == "background" {
							ctx = parallel.Background(ctx, new(atomic.Bool))
						}
						for j := range pairs[:runs] {
							pairs[j].Val = Value(i + 1)
						}
						if _, _, err := db.PutBatch(ctx, pairs[:runs]); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(fastest.Nanoseconds())/1e3, "chain-µs")
				})
			}
		}
	}

	// A wave on a grown table: first_full_wb's runs, 22 new pairs on each
	// chain of a table where a level starts (sweepTo / 2 ≈ 65 entries a
	// page, load factor 0.45), where the cases above have one pair a chain and cannot see the
	// chain walk's in-memory scan. The geometry is pinned so that, off the
	// clock, deleting each op's appends leaves every page as it was.
	b.Run("pagecache/pairs=22/load=0.45", func(b *testing.B) {
		const buckets, perChain = 1 << 10, 22
		db, err := create(filepath.Join(b.TempDir(), "wave.shdb"), Options{Buckets: buckets})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		stored := make([]Pair, int(sweepTo/2*buckets))
		for i := range stored {
			stored[i] = Pair{FP: fp(uint64(i)), Val: Value(i)}
		}
		wave := make([]Pair, 0, buckets*perChain)
		for bk := uint64(0); bk < buckets; bk++ {
			for j := uint64(0); j < perChain; j++ {
				wave = append(wave, Pair{FP: inBucket(buckets, bk, bk*perChain+j), Val: Value(j)})
			}
		}
		ctx := context.Background()
		if _, _, err := db.PutBatch(ctx, stored); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.PutBatch(ctx, wave); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for _, p := range wave {
				if ok, err := db.Delete(p.FP); err != nil || !ok {
					b.Fatalf("Delete: %v, %v", ok, err)
				}
			}
			b.StartTimer()
		}
		b.StopTimer() // not the deferred Close
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*buckets)/1e3, "µs/chain")
	})
}
