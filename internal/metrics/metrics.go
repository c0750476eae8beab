// Package metrics provides the latency histograms the benchmark harness
// uses to reproduce the paper's measurements (execution time in Figure 1),
// walks stats structs field by field, and serves them as Prometheus text.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram records durations in logarithmic buckets (powers of two of a
// base resolution), supporting approximate percentiles with bounded memory.
// It is safe for concurrent use.
type Histogram struct {
	base    time.Duration
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; math.MaxInt64 when empty
	max     atomic.Int64
}

// NewHistogram creates a histogram with the given base resolution (the
// width of the first bucket). Durations up to base<<(buckets-1) resolve
// into distinct buckets; larger values clamp into the last bucket.
func NewHistogram(base time.Duration, buckets int) *Histogram {
	if base <= 0 {
		base = time.Microsecond
	}
	if buckets <= 0 {
		buckets = 40
	}
	h := &Histogram{base: base, buckets: make([]atomic.Int64, buckets)}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := h.bucketIndex(d)
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.min.Load()
		if int64(d) >= cur || h.min.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

func (h *Histogram) bucketIndex(d time.Duration) int {
	if d < h.base {
		return 0
	}
	idx := 0
	v := d / h.base
	for v > 0 && idx < len(h.buckets)-1 {
		v >>= 1
		idx++
	}
	return idx
}

// bucketUpper returns the inclusive upper bound of bucket i.
func (h *Histogram) bucketUpper(i int) time.Duration {
	return h.base << uint(i)
}

// Merge adds src's observations into h. Both histograms must share the
// same base resolution and bucket count (it panics otherwise). The hybrid
// node folds its per-stripe phase histograms into one digest with it, so
// the hot path only ever touches stripe-local counters.
func (h *Histogram) Merge(src *Histogram) {
	if h.base != src.base || len(h.buckets) != len(src.buckets) {
		panic("metrics: merging incompatible histograms")
	}
	count := src.count.Load()
	if count == 0 {
		return
	}
	for i := range src.buckets {
		if n := src.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(count)
	h.sum.Add(src.sum.Load())
	for {
		cur := h.min.Load()
		v := src.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		v := src.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Summary is a point-in-time digest of a histogram.
type Summary struct {
	Count int64
	Sum   time.Duration
	Min   time.Duration
	Max   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// Summarize digests the histogram. Percentiles are upper bounds of the
// containing bucket (conservative).
func (h *Histogram) Summarize() Summary {
	count := h.count.Load()
	s := Summary{Count: count, Sum: time.Duration(h.sum.Load())}
	if count == 0 {
		return s
	}
	s.Min = time.Duration(h.min.Load())
	s.Max = time.Duration(h.max.Load())
	s.Mean = s.Sum / time.Duration(count)
	s.P50 = h.percentile(count, 0.50)
	s.P90 = h.percentile(count, 0.90)
	s.P99 = h.percentile(count, 0.99)
	return s
}

func (h *Histogram) percentile(count int64, q float64) time.Duration {
	target := int64(math.Ceil(q * float64(count)))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i == len(h.buckets)-1 {
				// Overflow bucket: its only honest bound is the observed max.
				return time.Duration(h.max.Load())
			}
			up := h.bucketUpper(i)
			if max := time.Duration(h.max.Load()); up > max {
				return max
			}
			return up
		}
	}
	return time.Duration(h.max.Load())
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}
