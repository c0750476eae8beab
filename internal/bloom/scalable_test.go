package bloom

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"shhc/internal/fingerprint"
)

func TestScalableNoFalseNegativesThroughGrowth(t *testing.T) {
	s := NewScalable(100, 0.01)
	const n = 3000 // 30x the construction sizing
	for i := uint64(0); i < n; i++ {
		s.Add(fingerprint.FromUint64(i))
	}
	for i := uint64(0); i < n; i++ {
		if !s.MayContain(fingerprint.FromUint64(i)) {
			t.Fatalf("false negative for %d after growth", i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	if s.Slices() < 3 {
		t.Fatalf("Slices = %d after 30x overfill, want several", s.Slices())
	}
	if !s.Saturated() {
		t.Fatal("Saturated = false after outgrowing construction sizing")
	}
}

func TestScalableFPRateStaysBoundedPastCapacity(t *testing.T) {
	const (
		expected = 1000
		rate     = 0.01
		overfill = 8 // the fixed-capacity failure mode this type fixes
		probes   = 20000
	)
	fixed := New(expected, rate)
	scalable := NewScalable(expected, rate)
	for i := uint64(0); i < expected*overfill; i++ {
		fp := fingerprint.FromUint64(i)
		fixed.Add(fp)
		scalable.Add(fp)
	}
	countFPs := func(may func(fingerprint.Fingerprint) bool) int {
		fps := 0
		for i := uint64(0); i < probes; i++ {
			if may(fingerprint.FromUint64(1 << 40 * (i + 1))) {
				fps++
			}
		}
		return fps
	}
	fixedFPs := countFPs(fixed.MayContain)
	scalableFPs := countFPs(scalable.MayContain)
	// The fixed filter is hopeless at 8x fill (~0.6 observed FP rate); the
	// scalable one must stay near its construction bound. 3x the bound
	// gives the statistical test slack without letting a broken compound
	// rate pass.
	if got := float64(scalableFPs) / probes; got > 3*rate {
		t.Fatalf("scalable FP rate %.4f at %dx fill, want <= %.4f", got, overfill, 3*rate)
	}
	if fixedFPs < scalableFPs*10 {
		t.Fatalf("fixed filter FP count %d not clearly degraded vs scalable %d; test is not probing saturation", fixedFPs, scalableFPs)
	}
	if est := scalable.EstimatedFPRate(); est > rate {
		t.Fatalf("EstimatedFPRate = %.4f above construction bound %.4f", est, rate)
	}
	if est := scalable.EstimatedFPRate(); est <= 0 {
		t.Fatalf("EstimatedFPRate = %g for a loaded filter", est)
	}
}

func TestScalableFreshFilterStats(t *testing.T) {
	s := NewScalable(100, 0.01)
	if s.Saturated() {
		t.Fatal("fresh filter reports saturated")
	}
	if s.Slices() != 1 {
		t.Fatalf("Slices = %d, want 1", s.Slices())
	}
	if got := s.EstimatedFPRate(); got != 0 {
		t.Fatalf("EstimatedFPRate = %g for empty filter, want 0", got)
	}
	if got := s.FillRatio(); got != 0 {
		t.Fatalf("FillRatio = %g for empty filter, want 0", got)
	}
	s.Add(fingerprint.FromUint64(1))
	if got := s.FillRatio(); got <= 0 || got > 1 {
		t.Fatalf("FillRatio = %g after one add", got)
	}
	if s.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not positive")
	}
}

func TestScalableMarshalRoundTrip(t *testing.T) {
	s := NewScalable(50, 0.02)
	const n = 400
	for i := uint64(0); i < n; i++ {
		s.Add(fingerprint.FromUint64(i))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	r := &Scalable{}
	if err := r.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if r.Len() != s.Len() || r.Slices() != s.Slices() {
		t.Fatalf("restored Len/Slices = %d/%d, want %d/%d", r.Len(), r.Slices(), s.Len(), s.Slices())
	}
	for i := uint64(0); i < n; i++ {
		if !r.MayContain(fingerprint.FromUint64(i)) {
			t.Fatalf("restored filter lost %d", i)
		}
	}
	// The restored filter must keep growing correctly.
	for i := uint64(n); i < 2*n; i++ {
		r.Add(fingerprint.FromUint64(i))
	}
	for i := uint64(0); i < 2*n; i++ {
		if !r.MayContain(fingerprint.FromUint64(i)) {
			t.Fatalf("restored filter lost %d after further growth", i)
		}
	}

	if err := r.UnmarshalBinary(data[:scalableHdrSize-1]); err == nil {
		t.Fatal("truncated header accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := r.UnmarshalBinary(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestScalableConcurrentAdds races adds — Add on even workers, the insert
// path's TestAndAdd on odd ones — against MayContain across the growth
// boundary; run under -race this checks the copy-on-write slice publication,
// and the post-condition checks no add was lost.
func TestScalableConcurrentAdds(t *testing.T) {
	s := NewScalable(64, 0.01)
	const (
		workers = 8
		perW    = 2000
	)
	var (
		wg      sync.WaitGroup
		skipped atomic.Int64 // TestAndAdds that answered true and added nothing
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * perW)
			for i := uint64(0); i < perW; i++ {
				fp := fingerprint.FromUint64(base + i)
				if w%2 == 0 {
					s.Add(fp)
				} else if s.TestAndAdd(fp) {
					skipped.Add(1)
				}
				if !s.MayContain(fp) {
					t.Errorf("false negative for %d right after its add", base+i)
					return
				}
				if i%16 == 0 {
					s.MayContain(fingerprint.FromUint64(base + i/2))
					s.EstimatedFPRate()
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Slices() < 4 {
		t.Fatalf("Slices = %d: the adds never crossed a growth", s.Slices())
	}
	for i := uint64(0); i < workers*perW; i++ {
		if !s.MayContain(fingerprint.FromUint64(i)) {
			t.Fatalf("false negative for %d after concurrent adds", i)
		}
	}
	if want := workers*perW - int(skipped.Load()); s.Len() != want {
		t.Fatalf("Len = %d, want %d (%d TestAndAdds found their key present)", s.Len(), want, skipped.Load())
	}
}

// TestScalableTestAndAdd: TestAndAdd answers what MayContain would have, and
// adds exactly when that answer is false — into the newest slice, chaining
// one when it is full.
func TestScalableTestAndAdd(t *testing.T) {
	s := NewScalable(100, 0.01)
	src := splitmix(3)
	for i := 0; i < 1000; i++ {
		fp := src.fp()
		may, before := s.MayContain(fp), s.Len()
		if got := s.TestAndAdd(fp); got != may {
			t.Fatalf("add %d: TestAndAdd = %v, MayContain said %v", i, got, may)
		}
		want := 1
		if may {
			want = 0
		}
		if added := s.Len() - before; added != want {
			t.Fatalf("add %d: Len grew by %d after a TestAndAdd that answered %v", i, added, may)
		}
		if !s.TestAndAdd(fp) || !s.MayContain(fp) {
			t.Fatalf("add %d: not present after TestAndAdd", i)
		}
	}
	if s.Slices() < 3 {
		t.Fatalf("Slices = %d after 10x the first slice's capacity", s.Slices())
	}
}

// FuzzBloomUnmarshal: a filter read back from untrusted bytes — Filter's or
// Scalable's encoding — never panics, and whatever decodes re-encodes to the
// same bytes.
func FuzzBloomUnmarshal(f *testing.F) {
	fl := New(200, 0.01)
	sc := NewScalable(20, 0.02)
	for i := uint64(0); i < 100; i++ {
		fl.Add(fingerprint.FromUint64(i))
		sc.Add(fingerprint.FromUint64(i))
	}
	for _, m := range []interface{ MarshalBinary() ([]byte, error) }{fl, sc} {
		b, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		v1 := append([]byte(nil), b...)
		v1[4] = 1
		f.Add(v1)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, u := range []interface {
			UnmarshalBinary([]byte) error
			MarshalBinary() ([]byte, error)
			MayContain(fingerprint.Fingerprint) bool
		}{&Filter{}, &Scalable{}} {
			if u.UnmarshalBinary(data) != nil {
				continue
			}
			u.MayContain(fingerprint.FromUint64(1))
			out, err := u.MarshalBinary()
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("%T: accepted %d bytes, re-marshals to %d (%v)", u, len(data), len(out), err)
			}
		}
	})
}
