package lru

import (
	"fmt"
	"testing"

	"shhc/internal/fingerprint"
)

// BenchmarkPutEvicting is the miss path's cache install: every Put is a new
// fingerprint into a full cache, so each one evicts. Fingerprints are minted
// ahead (a ring eight times the cache, so a key is long gone when it comes
// round again): SHA-1 costs more than the Put it would be timed with.
func BenchmarkPutEvicting(b *testing.B) {
	const capacity = 1 << 14
	fps := make([]fingerprint.Fingerprint, 8*capacity)
	for i := range fps {
		fps[i] = fingerprint.FromUint64(uint64(i))
	}
	c := New(capacity, nil)
	for _, f := range fps[:capacity] {
		c.Put(f, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(fps[(capacity+i)%len(fps)], Value(i))
	}
}

func BenchmarkGetHit(b *testing.B) {
	const working = 1 << 12
	c := New(working, nil)
	for i := 0; i < working; i++ {
		c.Put(fingerprint.FromUint64(uint64(i)), Value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(fingerprint.FromUint64(uint64(i % working))); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkGetMiss(b *testing.B) {
	c := New(1<<10, nil)
	for i := 0; i < 1<<10; i++ {
		c.Put(fingerprint.FromUint64(uint64(i)), Value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(fingerprint.FromUint64(uint64(1<<40 + i)))
	}
}

// BenchmarkGetFast is the lock-free hit path alone — what incr_hot pays per
// fingerprint: fingerprints minted ahead, every lookup a hit, no lock. 1 024
// entries stay cache-resident; 65 536 is the shhc-node default cache.
// (GetHit and GetMiss above time a SHA-1 and the locked Get with it.)
func BenchmarkGetFast(b *testing.B) {
	for _, entries := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			fps := make([]fingerprint.Fingerprint, entries)
			c := New(entries, nil)
			for i := range fps {
				fps[i] = fingerprint.FromUint64(uint64(i))
				c.Put(fps[i], Value(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.GetFast(fps[i&(entries-1)]); !ok {
					b.Fatal("unexpected miss")
				}
			}
		})
	}
}
