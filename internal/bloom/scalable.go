package bloom

// A fixed Bloom filter shares the fixed-capacity bug this repo's hash
// table had: size it for N, add 8N, and the false-positive rate collapses
// toward 1 — every "definitely absent" answer the node relies on to skip
// SSD probes disappears. Scalable is the chained/partitioned filter of
// Almeida et al., "Scalable Bloom Filters" (Inf. Process. Lett. 101(6),
// 2007): a list of plain Filters ("slices") where adds go to the newest
// slice and a new, larger, tighter slice is chained on when it saturates.
// Slice i holds expected<<i items at rate r0·rⁱ (r = 1/2), so the
// compounded false-positive rate over any number of slices stays below
// r0/(1-r) = 2·r0 — NewScalable sizes r0 at half the requested rate to
// hit the requested bound however far the filter grows.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"shhc/internal/fingerprint"
)

// scalableSlice pairs one fixed filter with the add-count that saturates
// it (Filter does not retain its construction capacity).
type scalableSlice struct {
	f   *Filter
	cap uint64
}

// Scalable is a Bloom filter that grows to hold any number of entries
// while keeping its compounded false-positive rate under the construction
// bound. Add, TestAndAdd and MayContain are safe for concurrent use with the
// same memory-ordering contract as Filter: a completed Add is never reported
// absent; "Add then MayContain" of the same fingerprint must be
// serialized by the caller (the hybrid node's stripe lock does).
// UnmarshalBinary must not race any other method.
type Scalable struct {
	slices   atomic.Pointer[[]scalableSlice]
	growMu   sync.Mutex // serializes chaining a new slice
	expected uint64
	rate     float64 // requested compound rate (slice 0 gets rate/2)
}

// NewScalable creates a filter sized for expectedItems whose compounded
// false-positive rate stays under fpRate no matter how far past
// expectedItems it grows. It panics on non-positive expectedItems or
// out-of-range fpRate, like New.
func NewScalable(expectedItems int, fpRate float64) *Scalable {
	if expectedItems <= 0 {
		panic("bloom: expectedItems must be positive")
	}
	if fpRate <= 0 || fpRate >= 1 {
		panic("bloom: fpRate must be in (0, 1)")
	}
	s := &Scalable{expected: uint64(expectedItems), rate: fpRate}
	first := []scalableSlice{{f: New(expectedItems, fpRate/2), cap: uint64(expectedItems)}}
	s.slices.Store(&first)
	return s
}

// sliceParams returns the capacity and false-positive rate of slice i:
// capacity doubles per slice (slice count stays logarithmic in total
// adds) while the rate halves (the compound false-positive sum
// converges to the construction bound).
func (s *Scalable) sliceParams(i int) (cap uint64, rate float64) {
	return s.expected << uint(i), s.rate / 2 * math.Pow(0.5, float64(i))
}

// Add inserts the fingerprint. When the newest slice reaches its
// capacity, the next Add chains a fresh slice twice as large at half the
// previous slice's false-positive rate; adds racing the chaining land in
// the previous slice (at most a hair over capacity, which the
// compound-rate bound absorbs).
func (s *Scalable) Add(fp fingerprint.Fingerprint) {
	slices := *s.slices.Load()
	last := &slices[len(slices)-1]
	if uint64(last.f.Len()) >= last.cap {
		s.grow(len(slices))
		slices = *s.slices.Load()
		last = &slices[len(slices)-1]
	}
	last.f.Add(fp)
}

// grow chains a new slice if the list still has fromLen slices (a racing
// grower may already have done it).
func (s *Scalable) grow(fromLen int) {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	cur := *s.slices.Load()
	if len(cur) != fromLen {
		return
	}
	cap, rate := s.sliceParams(len(cur))
	grown := append(append(make([]scalableSlice, 0, len(cur)+1), cur...),
		scalableSlice{f: New(int(cap), rate), cap: cap})
	s.slices.Store(&grown)
}

// TestAndAdd is MayContain followed, when it answers false, by Add — the
// insert path's two calls fused, so the newest slice's word is located and
// loaded once. It reports what MayContain would have; a fingerprint it
// answers true for is not added. Like Add then MayContain, two TestAndAdds
// of the same fingerprint must be serialized by the caller.
func (s *Scalable) TestAndAdd(fp fingerprint.Fingerprint) (mayContain bool) {
	slices := *s.slices.Load()
	last := &slices[len(slices)-1]
	word, mask := last.f.locate(fp)
	if atomic.LoadUint64(word)&mask == mask {
		return true
	}
	for i := len(slices) - 2; i >= 0; i-- {
		if slices[i].f.MayContain(fp) {
			return true
		}
	}
	if uint64(last.f.Len()) >= last.cap {
		s.Add(fp) // chains the next slice first
		return false
	}
	atomic.OrUint64(word, mask)
	last.f.n.Add(1)
	return false
}

// Prefetch loads the newest slice's word for fp and discards it: a caller
// about to test a batch of keys one by one under locks takes the batch's
// cache misses together, ahead of time.
func (s *Scalable) Prefetch(fp fingerprint.Fingerprint) {
	slices := *s.slices.Load()
	atomic.LoadUint64(slices[len(slices)-1].f.word(fp))
}

// MayContain reports whether the fingerprint may have been added. A false
// result is definitive across every slice.
func (s *Scalable) MayContain(fp fingerprint.Fingerprint) bool {
	slices := *s.slices.Load()
	// Newest first: in dedup workloads recent fingerprints are the ones
	// re-queried, and positives short-circuit.
	for i := len(slices) - 1; i >= 0; i-- {
		if slices[i].f.MayContain(fp) {
			return true
		}
	}
	return false
}

// Len returns the number of Add calls across all slices.
func (s *Scalable) Len() int {
	n := 0
	for _, sl := range *s.slices.Load() {
		n += sl.f.Len()
	}
	return n
}

// Slices returns the number of chained slices (1 until the filter first
// outgrows its construction sizing).
func (s *Scalable) Slices() int { return len(*s.slices.Load()) }

// Saturated reports whether the filter has outgrown its construction
// sizing and chained at least one additional slice. It is an advisory
// capacity signal — accuracy is preserved through growth — surfaced in
// node stats so operators notice a table running past its planning
// estimate.
func (s *Scalable) Saturated() bool { return s.Slices() > 1 }

// FillRatio returns how full the newest slice is (adds / capacity); 1.0
// means the next Add chains a new slice.
func (s *Scalable) FillRatio() float64 {
	slices := *s.slices.Load()
	last := slices[len(slices)-1]
	return float64(last.f.Len()) / float64(last.cap)
}

// EstimatedFPRate returns the compounded false-positive probability at the
// current fill: 1 - Π(1 - pᵢ) over the slices' individual estimates. It
// stays under the construction rate even when the filter has grown far
// past its expected size — the observability counterpart of the fix this
// type exists for.
func (s *Scalable) EstimatedFPRate() float64 {
	pass := 1.0
	for _, sl := range *s.slices.Load() {
		pass *= 1 - sl.f.EstimatedFPRate()
	}
	return 1 - pass
}

// SizeBytes returns the total in-memory size of all slices' bit arrays.
func (s *Scalable) SizeBytes() int {
	n := 0
	for _, sl := range *s.slices.Load() {
		n += sl.f.SizeBytes()
	}
	return n
}

// marshal layout: magic(4) version(1) pad(3) expected(8) rate(8)
// sliceCount(4), then per slice: cap(8) len(4) filterBytes. The version is
// the slices' (Filter's marshalVersion).
const (
	scalableMagic   = "SSBF"
	scalableHdrSize = 4 + 1 + 3 + 8 + 8 + 4
	maxSlices       = 64
)

// MarshalBinary serializes the filter for node checkpointing. Like
// Filter.MarshalBinary it may run concurrently with Add; an Add racing the
// snapshot is wholly or partially included, costing at most an extra SSD
// probe on restore.
func (s *Scalable) MarshalBinary() ([]byte, error) {
	slices := *s.slices.Load()
	var parts [][]byte
	total := scalableHdrSize
	for _, sl := range slices {
		b, err := sl.f.MarshalBinary()
		if err != nil {
			return nil, err
		}
		parts = append(parts, b)
		total += 12 + len(b)
	}
	buf := make([]byte, 0, total)
	var hdr [scalableHdrSize]byte
	copy(hdr[0:4], scalableMagic)
	hdr[4] = marshalVersion
	binary.BigEndian.PutUint64(hdr[8:16], s.expected)
	binary.BigEndian.PutUint64(hdr[16:24], math.Float64bits(s.rate))
	binary.BigEndian.PutUint32(hdr[24:28], uint32(len(slices)))
	buf = append(buf, hdr[:]...)
	for i, b := range parts {
		var ph [12]byte
		binary.BigEndian.PutUint64(ph[0:8], slices[i].cap)
		binary.BigEndian.PutUint32(ph[8:12], uint32(len(b)))
		buf = append(buf, ph[:]...)
		buf = append(buf, b...)
	}
	return buf, nil
}

// UnmarshalBinary restores a filter serialized by MarshalBinary. It accepts
// exactly the bytes MarshalBinary produces, checking every size field against
// the input before it allocates. It must not race any other method: it swaps
// the whole slice list.
func (s *Scalable) UnmarshalBinary(data []byte) error {
	if len(data) < scalableHdrSize {
		return errors.New("bloom: unmarshal scalable: truncated header")
	}
	if string(data[0:4]) != scalableMagic {
		return fmt.Errorf("bloom: unmarshal scalable: bad magic %q", data[0:4])
	}
	if data[4] != marshalVersion {
		return fmt.Errorf("bloom: unmarshal scalable: unsupported version %d", data[4])
	}
	expected := binary.BigEndian.Uint64(data[8:16])
	rate := math.Float64frombits(binary.BigEndian.Uint64(data[16:24]))
	count := binary.BigEndian.Uint32(data[24:28])
	// The next slice's capacity, expected<<count, must still be an int.
	if string(data[5:8]) != "\x00\x00\x00" || expected == 0 || !(rate > 0 && rate < 1) ||
		count == 0 || count > maxSlices || bits.Len64(expected)+int(count) > 62 ||
		uint64(len(data)-scalableHdrSize) < uint64(count)*(12+marshalHdrSize) {
		return fmt.Errorf("bloom: unmarshal scalable: invalid header (expected=%d rate=%g slices=%d)", expected, rate, count)
	}
	restored := make([]scalableSlice, 0, count)
	off := scalableHdrSize
	for i := uint32(0); i < count; i++ {
		if len(data) < off+12 {
			return errors.New("bloom: unmarshal scalable: truncated slice header")
		}
		cap := binary.BigEndian.Uint64(data[off : off+8])
		n := int(binary.BigEndian.Uint32(data[off+8 : off+12]))
		off += 12
		if cap == 0 || n > len(data)-off {
			return fmt.Errorf("bloom: unmarshal scalable: slice %d truncated", i)
		}
		f := &Filter{}
		if err := f.UnmarshalBinary(data[off : off+n]); err != nil {
			return fmt.Errorf("bloom: unmarshal scalable: slice %d: %w", i, err)
		}
		off += n
		// restored is private until the Store below publishes it.
		restored = append(restored, scalableSlice{f: f, cap: cap})
	}
	if off != len(data) {
		return fmt.Errorf("bloom: unmarshal scalable: %d trailing bytes", len(data)-off)
	}
	s.expected, s.rate = expected, rate
	s.slices.Store(&restored)
	return nil
}
