package bloom

import (
	"testing"

	"shhc/internal/fingerprint"
)

// The benchmarks size their filter like a node's first slice — 2^20 keys at
// 0.5 %, 1.9 MiB, past the L2 cache — and draw keys from a precomputed
// table, so an op is the filter's cost alone, not a SHA-1 to mint the key.
const (
	benchKeys = 1 << 20
	benchRate = 0.005
)

// benchFPs returns n keys of a splitmix stream; seed 1 is the one the
// benchmarks add, seed 2 keys they never add.
func benchFPs(seed splitmix, n int) []fingerprint.Fingerprint {
	fps := make([]fingerprint.Fingerprint, n)
	for i := range fps {
		fps[i] = seed.fp()
	}
	return fps
}

func BenchmarkAdd(b *testing.B) {
	fps := benchFPs(1, benchKeys)
	f := New(benchKeys, benchRate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(fps[i&(benchKeys-1)])
	}
}

// BenchmarkTestAndAdd is the insert path's call on a node's filter: every
// key new, each op one TestAndAdd. A filter is refilled from empty every
// benchKeys ops, off the clock, so no op chains a second slice.
func BenchmarkTestAndAdd(b *testing.B) {
	fps := benchFPs(1, benchKeys)
	var s *Scalable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(benchKeys-1) == 0 {
			b.StopTimer()
			s = NewScalable(benchKeys, 2*benchRate)
			b.StartTimer()
		}
		if s.TestAndAdd(fps[i&(benchKeys-1)]) {
			sink++
		}
	}
}

// sink keeps the answers of the benchmarks that do not check them alive.
var sink int

func BenchmarkMayContainHit(b *testing.B) {
	fps := benchFPs(1, benchKeys)
	f := New(benchKeys, benchRate)
	for _, fp := range fps {
		f.Add(fp)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.MayContain(fps[i&(benchKeys-1)]) {
			b.Fatal("false negative")
		}
	}
}

func BenchmarkMayContainMiss(b *testing.B) {
	f := New(benchKeys, benchRate)
	for _, fp := range benchFPs(1, benchKeys) {
		f.Add(fp)
	}
	fps := benchFPs(2, benchKeys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.MayContain(fps[i&(benchKeys-1)]) {
			sink++
		}
	}
}
