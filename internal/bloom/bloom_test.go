package bloom

import (
	"math"
	"testing"
	"testing/quick"

	"shhc/internal/fingerprint"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(10000, 0.01)
	for i := uint64(0); i < 10000; i++ {
		f.Add(fingerprint.FromUint64(i))
	}
	for i := uint64(0); i < 10000; i++ {
		if !f.MayContain(fingerprint.FromUint64(i)) {
			t.Fatalf("false negative for element %d", i)
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 50000
	const target = 0.01
	f := New(n, target)
	for i := uint64(0); i < n; i++ {
		f.Add(fingerprint.FromUint64(i))
	}
	fps := 0
	const probes = 50000
	for i := uint64(n); i < n+probes; i++ {
		if f.MayContain(fingerprint.FromUint64(i)) {
			fps++
		}
	}
	rate := float64(fps) / probes
	if rate > target*3 {
		t.Fatalf("observed FP rate %.4f, want <= %.4f", rate, target*3)
	}
}

func TestEstimatedFPRate(t *testing.T) {
	f := New(1000, 0.01)
	if got := f.EstimatedFPRate(); got != 0 {
		t.Fatalf("empty filter FP estimate = %v, want 0", got)
	}
	for i := uint64(0); i < 1000; i++ {
		f.Add(fingerprint.FromUint64(i))
	}
	est := f.EstimatedFPRate()
	if est <= 0 || est > 0.05 {
		t.Fatalf("estimated FP rate at design fill = %v, want (0, 0.05]", est)
	}
}

func TestSizingMonotonicity(t *testing.T) {
	small := New(1000, 0.01)
	big := New(100000, 0.01)
	if len(small.words)*64 >= len(big.words)*64 {
		t.Fatalf("filter for more items must use more bits: %d vs %d", len(small.words)*64, len(big.words)*64)
	}
	loose := New(1000, 0.1)
	tight := New(1000, 0.001)
	if len(loose.words)*64 >= len(tight.words)*64 {
		t.Fatalf("tighter FP target must use more bits: %d vs %d", len(loose.words)*64, len(tight.words)*64)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	tests := []struct {
		name  string
		items int
		rate  float64
	}{
		{name: "zero items", items: 0, rate: 0.01},
		{name: "negative items", items: -5, rate: 0.01},
		{name: "zero rate", items: 10, rate: 0},
		{name: "rate one", items: 10, rate: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("New did not panic")
				}
			}()
			New(tt.items, tt.rate)
		})
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := New(5000, 0.02)
	for i := uint64(0); i < 3000; i++ {
		f.Add(fingerprint.FromUint64(i))
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var g Filter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if g.Len() != f.Len() || len(g.words)*64 != len(f.words)*64 || g.k != f.k {
		t.Fatalf("restored filter shape differs: %d/%d/%d vs %d/%d/%d",
			g.Len(), len(g.words)*64, g.k, f.Len(), len(f.words)*64, f.k)
	}
	for i := uint64(0); i < 3000; i++ {
		if !g.MayContain(fingerprint.FromUint64(i)) {
			t.Fatalf("restored filter lost element %d", i)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	f := New(100, 0.01)
	good, _ := f.MarshalBinary()

	tests := []struct {
		name string
		give []byte
	}{
		{name: "truncated", give: good[:10]},
		{name: "bad magic", give: append([]byte("XXXX"), good[4:]...)},
		{name: "bad version", give: func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 9
			return b
		}()},
		// Version 1 was the double-hashed layout: same header, bits that
		// mean nothing to a blocked filter.
		{name: "version 1", give: func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 1
			return b
		}()},
		{name: "length mismatch", give: good[:len(good)-8]},
		{name: "word count past input", give: func() []byte {
			b := append([]byte(nil), good...)
			b[8] = 0x80
			return b
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var g Filter
			if err := g.UnmarshalBinary(tt.give); err == nil {
				t.Fatal("unmarshal succeeded, want error")
			}
		})
	}
}

// splitmix is a splitmix64 stream of fingerprints: as uniform in Prefix64
// and Bucket64 as SHA-1's and far cheaper to mint, for tests that probe a
// filter millions of times. Distinct seeds give disjoint streams in practice.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (s *splitmix) fp() fingerprint.Fingerprint {
	return fingerprint.FromWords(s.next(), s.next(), uint32(s.next()))
}

// measuredFPRate probes f with fresh keys until about want false positives
// are expected at rate est, at most limit probes.
func measuredFPRate(f *Filter, seed splitmix, est float64, want, limit int) (rate float64, probes int) {
	probes = min(limit, int(float64(want)/est))
	hits := 0
	for i := 0; i < probes; i++ {
		if f.MayContain(seed.fp()) {
			hits++
		}
	}
	return float64(hits) / float64(probes), probes
}

// TestBloomBlockedFPRAtCapacity: at the rates of a node's first five
// Scalable slices (the default 1 % bound halves per slice), a filter filled
// to its capacity answers "maybe" for absent keys no more often than it was
// built for. The log is the package doc's table.
func TestBloomBlockedFPRAtCapacity(t *testing.T) {
	const n = 1 << 16
	for i, rate := range []float64{0.005, 0.0025, 0.00125, 0.000625, 0.0003125} {
		f := New(n, rate)
		src := splitmix(i + 1)
		for j := 0; j < n; j++ {
			f.Add(src.fp())
		}
		got, probes := measuredFPRate(f, splitmix(1000+i), rate, 1000, 1<<23)
		std := -math.Log(rate) / (math.Ln2 * math.Ln2)
		perKey := float64(len(f.words)*64) / n
		t.Logf("rate %.4f%%: k=%d, %.1f bits/key (standard %.1f, %.2fx); measured %.4f%% over %d probes, model %.4f%%",
			rate*100, f.k, perKey, std, perKey/std, got*100, probes, f.EstimatedFPRate()*100)
		if got > rate {
			t.Errorf("rate %g: measured %g at capacity", rate, got)
		}
	}
}

// TestBloomEstimateTracksMeasured: EstimatedFPRate — what NodeStats.Bloom,
// the wire stats frame and /v1/stats report — lands within 25 % of the
// measured rate at a quarter, half and all of a node-sized first slice's
// capacity.
func TestBloomEstimateTracksMeasured(t *testing.T) {
	const n = 1 << 16
	f := New(n, 0.005)
	src := splitmix(7)
	added := 0
	for _, load := range []int{n / 4, n / 2, n} {
		for ; added < load; added++ {
			f.Add(src.fp())
		}
		est := f.EstimatedFPRate()
		got, probes := measuredFPRate(f, splitmix(77+load), est, 400, 1<<22)
		t.Logf("%d keys: estimated %.5f%%, measured %.5f%% over %d probes", load, est*100, got*100, probes)
		if got == 0 || math.Abs(est/got-1) > 0.25 {
			t.Errorf("%d keys: estimated %g, measured %g", load, est, got)
		}
	}
}

// Property: anything added is always reported present, under arbitrary
// interleavings of adds.
func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(seeds []uint64) bool {
		if len(seeds) == 0 {
			return true
		}
		fl := New(len(seeds), 0.05)
		for _, s := range seeds {
			fl.Add(fingerprint.FromUint64(s))
		}
		for _, s := range seeds {
			if !fl.MayContain(fingerprint.FromUint64(s)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
