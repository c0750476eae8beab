package ring

import (
	"fmt"
	"testing"
)

// BenchmarkTablePoint is the owner lookup alone — what a batch pays per
// fingerprint.
func BenchmarkTablePoint(b *testing.B) {
	for _, nodes := range []int{2, 16, 64} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			t := Build(0, 1, members(nodes))
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
