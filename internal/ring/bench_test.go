package ring

import (
	"fmt"
	"testing"

	"shhc/internal/fingerprint"
)

func benchRing(b *testing.B, nodes, vnodes int) *Ring {
	b.Helper()
	r := New(vnodes)
	for i := 0; i < nodes; i++ {
		if err := r.Add(NodeID(fmt.Sprintf("node-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

func BenchmarkLookup(b *testing.B) {
	for _, nodes := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			r := benchRing(b, nodes, DefaultVirtualNodes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Lookup(fingerprint.FromUint64(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLookupN(b *testing.B) {
	r := benchRing(b, 16, DefaultVirtualNodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.LookupN(fingerprint.FromUint64(uint64(i)), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTablePoint is the owner lookup alone — what a batch pays per
// fingerprint — without the SHA-1 the benchmarks above spend minting one.
func BenchmarkTablePoint(b *testing.B) {
	for _, nodes := range []int{2, 16, 64} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			t := benchRing(b, nodes, DefaultVirtualNodes).Table()
			b.ReportAllocs()
			b.ResetTimer()
			var h uint64
			var sink int32
			for i := 0; i < b.N; i++ {
				h += 0x9e3779b97f4a7c15
				sink += t.Owner(t.Point(h))
			}
			_ = sink
		})
	}
}
