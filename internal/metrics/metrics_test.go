package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(time.Microsecond, 40)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	if s.Min != time.Microsecond {
		t.Fatalf("Min = %v, want 1us", s.Min)
	}
	if s.Max != 100*time.Microsecond {
		t.Fatalf("Max = %v, want 100us", s.Max)
	}
	wantMean := 50500 * time.Nanosecond
	if s.Mean != wantMean {
		t.Fatalf("Mean = %v, want %v", s.Mean, wantMean)
	}
	if s.P50 < 32*time.Microsecond || s.P50 > 100*time.Microsecond {
		t.Fatalf("P50 = %v, out of plausible bucket range", s.P50)
	}
	if s.P99 < s.P50 {
		t.Fatalf("P99 (%v) < P50 (%v)", s.P99, s.P50)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(time.Microsecond, 10)
	s := h.Summarize()
	if s.Count != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Fatalf("empty summary = %+v, want zeros", s)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(time.Microsecond, 10)
	h.Observe(-time.Second)
	s := h.Summarize()
	if s.Min != 0 || s.Count != 1 {
		t.Fatalf("negative observation handled badly: %+v", s)
	}
}

func TestHistogramOverflowClampsToLastBucket(t *testing.T) {
	h := NewHistogram(time.Microsecond, 4) // buckets up to 8us
	h.Observe(time.Hour)
	s := h.Summarize()
	if s.Max != time.Hour {
		t.Fatalf("Max = %v, want 1h", s.Max)
	}
	// Percentile clamps to observed max rather than bucket bound.
	if s.P99 != time.Hour {
		t.Fatalf("P99 = %v, want clamp to max", s.P99)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(time.Microsecond, 40)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Summarize().Count; got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(time.Microsecond, 10)
	b := NewHistogram(time.Microsecond, 10)
	for i := 1; i <= 100; i++ {
		a.Observe(time.Duration(i) * time.Microsecond)
	}
	for i := 101; i <= 200; i++ {
		b.Observe(time.Duration(i) * time.Microsecond)
	}
	m := NewHistogram(time.Microsecond, 10)
	m.Merge(a)
	m.Merge(b)
	m.Merge(NewHistogram(time.Microsecond, 10)) // empty merge is a no-op

	got := m.Summarize()
	if got.Count != 200 {
		t.Fatalf("merged Count = %d, want 200", got.Count)
	}
	if got.Min != time.Microsecond {
		t.Fatalf("merged Min = %v, want 1µs", got.Min)
	}
	if got.Max != 200*time.Microsecond {
		t.Fatalf("merged Max = %v, want 200µs", got.Max)
	}
	wantSum := a.Summarize().Sum + b.Summarize().Sum
	if got.Sum != wantSum {
		t.Fatalf("merged Sum = %v, want %v", got.Sum, wantSum)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("merging incompatible histograms did not panic")
		}
	}()
	m.Merge(NewHistogram(time.Millisecond, 10))
}
