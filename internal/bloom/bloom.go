// Package bloom implements the Bloom filter each SHHC hash node keeps in
// RAM to represent the set of fingerprints stored in its on-SSD hash table
// (paper §III.B: "a bloom filter is used to represent the hash values in
// the database").
//
// The filter never reports a stored fingerprint as absent (no false
// negatives); with the sizing used by the node it reports an absent
// fingerprint as possibly-present with probability at most the rate it was
// built for. A negative answer lets the node skip the SSD probe entirely for
// new data, which is the common case in low-redundancy backup workloads.
//
// # Layout: one word a key
//
// The filter is register-blocked (Putze, Sanders and Singler, "Cache-, Hash-
// and Space-Efficient Bloom Filters", 2007): a key owns one 64-bit word,
// chosen by a multiply-shift of its scrambled Prefix64 over the word count,
// and sets k bits of that word, one per 6-bit field of its Bucket64. So
// MayContain is one load and Add one load plus at most one atomic OR — where
// a standard filter's k probes land in k words, k cache misses on a filter
// the size of a node's (≈ 2 MB), each behind a 64-bit division. On an
// all-new stream that filter was the node's largest CPU cost.
//
// The price is space. Keys crowd some words more than others (a word's load
// is Poisson), and a crowded word answers "maybe" more often than a standard
// filter's bit array does at the same fill, so a blocked filter needs more
// bits for the same false-positive rate. New sizes each filter from the
// blocked filter's exact rate (fpRate), with the k that needs the fewest
// bits, at a tenth below the target:
//
//	target rate  k  bits/key  standard  ratio  measured at capacity
//	0.5 %        6   15.5      11.0     1.41×  0.46 %
//	0.25 %       7   19.0      12.5     1.53×  0.23 %
//	0.125 %      7   23.2      13.9     1.67×  0.114 %
//	0.0625 %     8   28.2      15.4     1.84×  0.055 %
//	0.031 %      8   34.2      16.8     2.03×  0.028 %
//
// These are the rates of a node's first five Scalable slices at the default
// 1 % bound (TestBloomBlockedFPRAtCapacity); the first slice of a 2^20-key
// node takes 1.94 MiB where a standard filter took 1.38 MiB.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"shhc/internal/fingerprint"
)

const (
	// maxHashes is how many 6-bit fields a 64-bit Bucket64 holds.
	maxHashes = 10
	maxWords  = 1 << 40
	// sizingMargin is the share of the target rate New sizes for: the
	// model is an expectation over keys, and the margin keeps a measured
	// rate at capacity under the target, not around it.
	sizingMargin = 0.9
	// scramble is the odd multiplier (2^64/φ) applied to Prefix64 before it
	// picks a word. The ring hands a node whole arcs of the prefix space, so
	// the raw prefix's top bits would reach only the words under those arcs;
	// the product's top bits depend on every bit of the prefix.
	scramble = 0x9E3779B97F4A7C15
)

// Filter is a register-blocked Bloom filter over fingerprints: each key's k
// bits sit in one of its 64-bit words (the package doc gives the layout, why
// it is blocked, and what that costs in bits per key).
//
// Add and MayContain are safe for concurrent use: every word is read and
// written atomically, bits are only ever set, never cleared, and an Add sets
// all its bits in one atomic OR, so a MayContain sees either none of an Add
// or all of it. Callers that need "Add then MayContain" ordering for the
// *same* fingerprint must serialize those two calls themselves (the hybrid
// node's per-stripe lock does exactly that). UnmarshalBinary is not safe to
// race with any other method: it swaps the word array wholesale.
type Filter struct {
	words []uint64
	k     int
	n     atomic.Uint64 // elements added
}

// New creates a filter sized for expectedItems with the given target false
// positive rate. It panics on non-positive expectedItems or out-of-range
// fpRate, because both indicate a programming error in the caller.
func New(expectedItems int, fpRate float64) *Filter {
	if expectedItems <= 0 {
		panic("bloom: expectedItems must be positive")
	}
	if !(fpRate > 0 && fpRate < 1) {
		panic("bloom: fpRate must be in (0, 1)")
	}
	words, k := optimalSize(uint64(expectedItems), fpRate*sizingMargin)
	return &Filter{words: make([]uint64, words), k: k}
}

// optimalSize returns the fewest words, and the k that needs them, for which
// n keys answer "maybe" to an absent key with probability at most p.
func optimalSize(n uint64, p float64) (words uint64, k int) {
	for kk := 1; kk <= maxHashes; kk++ {
		// The rate falls as words grow: double up to a fit, then bisect.
		// maxWords (8 TiB) only stops a rate below the model's rounding
		// from doubling forever.
		hi := uint64(1)
		for hi < maxWords && fpRate(n, hi, kk) > p {
			hi *= 2
		}
		lo := hi / 2 // fpRate(n, lo, kk) > p, or lo == 0
		for lo+1 < hi {
			if mid := lo + (hi-lo)/2; fpRate(n, mid, kk) > p {
				lo = mid
			} else {
				hi = mid
			}
		}
		if words == 0 || hi < words {
			words, k = hi, kk
		}
	}
	return words, k
}

// fpRate is the probability that a blocked filter of the given word count,
// holding n keys of k bits each, answers "maybe" for an absent key.
//
// The query's k fields name a set S of s distinct bits, and the n keys each
// land in its word with probability 1/words. For one of them, the chance of
// missing t given bits of the word is r_t = (1-t/64)^k, so by inclusion-
// exclusion over the bits of S left unset,
//
//	P(S all set) = Σ_t (-1)^t C(s,t) (1 - (1-r_t)/words)^n,
//
// and P(|S| = s) = 64·63·…·(65-s) · S(k,s) / 64^k, with S(k,s) the Stirling
// numbers of the second kind. Summing over s first leaves k+1 terms.
func fpRate(n, words uint64, k int) float64 {
	if n == 0 {
		return 0
	}
	var stirling [maxHashes + 1]float64 // S(j, s) for the j reached so far
	stirling[0] = 1
	for j := 1; j <= k; j++ {
		for s := j; s >= 1; s-- {
			stirling[s] = float64(s)*stirling[s] + stirling[s-1]
		}
		stirling[0] = 0
	}
	var pS [maxHashes + 1]float64 // P(|S| = s)
	falling := 1.0
	for s := 1; s <= k; s++ {
		falling *= float64(65-s) / 64
		pS[s] = falling * stirling[s] / math.Pow(64, float64(k-s))
	}
	rate := 0.0
	for t := 0; t <= k; t++ {
		coef, binom := 0.0, 1.0 // Σ_{s≥t} C(s,t) P(|S|=s); C(t,t) = 1
		for s := t; s <= k; s++ {
			if s > t {
				binom = binom * float64(s) / float64(s-t)
			}
			coef += binom * pS[s]
		}
		if t%2 == 1 {
			coef = -coef
		}
		hit := 1 - math.Pow(1-float64(t)/64, float64(k)) // 1 - r_t
		rate += coef * math.Exp(float64(n)*math.Log1p(-hit/float64(words)))
	}
	return max(rate, 0)
}

// word returns the word fp's bits live in.
func (f *Filter) word(fp fingerprint.Fingerprint) *uint64 {
	w, _ := bits.Mul64(fp.Prefix64()*scramble, uint64(len(f.words)))
	return &f.words[w]
}

// locate returns the word fp's bits live in and the bits themselves.
func (f *Filter) locate(fp fingerprint.Fingerprint) (*uint64, uint64) {
	var mask uint64
	for i, b := 0, fp.Bucket64(); i < f.k; i, b = i+1, b>>6 {
		mask |= 1 << (b & 63)
	}
	return f.word(fp), mask
}

// Add inserts the fingerprint into the filter.
func (f *Filter) Add(fp fingerprint.Fingerprint) {
	word, mask := f.locate(fp)
	if atomic.LoadUint64(word)&mask != mask {
		atomic.OrUint64(word, mask)
	}
	f.n.Add(1)
}

// MayContain reports whether the fingerprint may have been added. A false
// result is definitive: the fingerprint was never added.
func (f *Filter) MayContain(fp fingerprint.Fingerprint) bool {
	word, mask := f.locate(fp)
	return atomic.LoadUint64(word)&mask == mask
}

// Len returns the number of Add calls.
func (f *Filter) Len() int { return int(f.n.Load()) }

// EstimatedFPRate returns the expected false positive probability given the
// current fill (fpRate).
func (f *Filter) EstimatedFPRate() float64 {
	return fpRate(f.n.Load(), uint64(len(f.words)), f.k)
}

// marshal header: magic(4) version(1) k(1) pad(2) words(8) n(8). Version 1
// was the double-hashed layout, whose bit positions mean nothing here.
const (
	marshalMagic   = "SBF1"
	marshalVersion = 2
	marshalHdrSize = 4 + 1 + 1 + 2 + 8 + 8
)

// MarshalBinary serializes the filter (node checkpointing). It loads each
// word atomically, so it may run concurrently with Add; an Add racing the
// snapshot is either wholly included or not, which on restore can only cost
// an extra SSD probe, never a false negative for completed Adds.
func (f *Filter) MarshalBinary() ([]byte, error) {
	buf := make([]byte, marshalHdrSize+len(f.words)*8)
	copy(buf[0:4], marshalMagic)
	buf[4] = marshalVersion
	buf[5] = byte(f.k)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(f.words)))
	binary.BigEndian.PutUint64(buf[16:24], f.n.Load())
	for i := range f.words {
		binary.BigEndian.PutUint64(buf[marshalHdrSize+i*8:], atomic.LoadUint64(&f.words[i]))
	}
	return buf, nil
}

// UnmarshalBinary restores a filter serialized by MarshalBinary. It accepts
// exactly the bytes MarshalBinary produces, checking every size field against
// the input before it allocates.
func (f *Filter) UnmarshalBinary(data []byte) error {
	if len(data) < marshalHdrSize {
		return errors.New("bloom: unmarshal: truncated header")
	}
	if string(data[0:4]) != marshalMagic {
		return fmt.Errorf("bloom: unmarshal: bad magic %q", data[0:4])
	}
	if data[4] != marshalVersion {
		return fmt.Errorf("bloom: unmarshal: unsupported version %d", data[4])
	}
	k := int(data[5])
	if k < 1 || k > maxHashes || data[6] != 0 || data[7] != 0 {
		return fmt.Errorf("bloom: unmarshal: invalid header (k=%d pad=%x)", k, data[6:8])
	}
	words := binary.BigEndian.Uint64(data[8:16])
	n := binary.BigEndian.Uint64(data[16:24])
	body := len(data) - marshalHdrSize
	if words == 0 || body%8 != 0 || uint64(body/8) != words {
		return fmt.Errorf("bloom: unmarshal: %d words do not fit %d bytes", words, body)
	}
	w := make([]uint64, words)
	for i := range w {
		w[i] = binary.BigEndian.Uint64(data[marshalHdrSize+i*8:])
	}
	f.words, f.k = w, k
	f.n.Store(n)
	return nil
}

// SizeBytes returns the in-memory size of the word array, for capacity
// planning (the paper keeps <bloom, filepath> entries in node RAM).
func (f *Filter) SizeBytes() int { return len(f.words) * 8 }
