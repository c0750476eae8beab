//go:build linux && (amd64 || arm64)

package hashdb

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// BenchmarkPageIO prices the one thing hashdb buys from the kernel, a 4 KiB
// page of a page-cache-resident file, so that two arguments rest on numbers
// anyone can read again (ROADMAP, "Settled" and "Parked"):
//
//   - what a syscall per page costs, and so what an engine that batches
//     syscalls could save at most: the same pages moved k = 1, 8 or 64 to a
//     call. The per-page cost at k = 64 is the copy and the page-cache lookup,
//     which no engine removes;
//   - why walking a Truncate-created table in bucket order lost to a scattered
//     walk (PR 12): ascending reads of a sparse file set kernel readahead off,
//     which instantiates pages the walk never asked for. fadv-random is the
//     same ascending walk with readahead switched off.
//
// One op is one pass over a fresh sparse file of pageIOPages pages, every
// page touched once (cold: a hole, as a bucket page is before its first
// write), then the same pass again (warm: in the page cache). Run it with
// -benchtime 3x.
func BenchmarkPageIO(b *testing.B) {
	const (
		pageIOPages = 1 << 15 // 128 MiB, never more than one file at a time
		scatter     = 0x9E3779B97F4A7C15
	)
	for _, op := range []string{"read", "write"} {
		for _, order := range []string{"scattered", "ascending", "ascending-fadv-random"} {
			for _, k := range []int{1, 8, 64} {
				b.Run(fmt.Sprintf("%s/%s/k=%d", op, order, k), func(b *testing.B) {
					buf := make([]byte, k*PageSize)
					slots := pageIOPages / k
					var cold, warm time.Duration
					for i := 0; i < b.N; i++ {
						path := filepath.Join(b.TempDir(), fmt.Sprintf("pageio-%d", i))
						f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
						if err != nil {
							b.Fatal(err)
						}
						if err := f.Truncate(pageIOPages * PageSize); err != nil {
							b.Fatal(err)
						}
						if order == "ascending-fadv-random" {
							const fadvRandom = 1 // POSIX_FADV_RANDOM
							if _, _, errno := syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, fadvRandom, 0, 0); errno != 0 {
								b.Skipf("fadvise: %v", errno)
							}
						}
						pass := func() time.Duration {
							start := time.Now()
							for s := 0; s < slots; s++ {
								slot := s
								if order == "scattered" {
									// An odd multiplier (2^64/φ) is a bijection
									// on the power-of-two slot count.
									slot = int(uint64(s) * scatter % uint64(slots))
								}
								off := int64(slot) * int64(len(buf))
								if op == "read" {
									_, err = f.ReadAt(buf, off)
								} else {
									_, err = f.WriteAt(buf, off)
								}
								if err != nil {
									b.Fatal(err)
								}
							}
							return time.Since(start)
						}
						cold += pass()
						warm += pass()
						f.Close()
						os.Remove(path)
					}
					pages := float64(b.N) * pageIOPages
					b.ReportMetric(float64(cold.Nanoseconds())/pages, "cold-ns/page")
					b.ReportMetric(float64(warm.Nanoseconds())/pages, "warm-ns/page")
					b.ReportMetric(0, "ns/op") // one op is two passes and a file; the per-page figures are the result
				})
			}
		}
	}
}
