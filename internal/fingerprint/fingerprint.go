// Package fingerprint defines the chunk fingerprint type used throughout
// SHHC and helpers to derive, parse, and route fingerprints.
//
// SHHC identifies every data chunk by its SHA-1 digest, following the paper
// ("calculates a fingerprint for each chunk using a cryptographic hash
// function (e.g. SHA-1)"). The cluster routes on a 64-bit prefix of it.
//
// Representation. A Fingerprint is the digest held as three integer words —
// bytes 0–8, 8–16 and 16–20 read big-endian — not as a [20]byte. Go passes
// a struct of up to four words in registers and an array of more than one
// element never, so the array form was copied through the stack at every
// call of the hit and miss paths, and the word loads that followed each copy
// defeated store-to-load forwarding. As words, == is three integer compares
// and Prefix64/Bucket64/Tail32 are field reads.
//
// The type is opaque: never reach for the bytes on a hot path. The 20 digest
// bytes exist only at the edges — wire frames, hashdb pages, journal
// records, trace files, hex — and cross them through FromBytes, Put, Append
// and Bytes, which keep every encoded form byte-identical to the digest.
package fingerprint

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Size is the encoded length of a fingerprint in bytes (SHA-1 digest size).
const Size = sha1.Size

// Fingerprint is the SHA-1 digest of a chunk's content. It is comparable
// and usable as a map key; its zero value is Zero.
type Fingerprint struct {
	a, b uint64
	c    uint32
}

// Zero is the all-zero fingerprint. It is never produced by hashing real
// data (probabilistically) and is used as a sentinel for "empty slot" in
// on-disk structures.
var Zero Fingerprint

// FromBytes reads a fingerprint from the first Size bytes of b, which must
// hold at least that many.
func FromBytes(b []byte) Fingerprint {
	_ = b[Size-1]
	return Fingerprint{binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint32(b[16:])}
}

// FromWords is the inverse of Prefix64, Bucket64 and Tail32.
func FromWords(prefix, bucket uint64, tail uint32) Fingerprint {
	return Fingerprint{prefix, bucket, tail}
}

// FromData computes the fingerprint of a chunk's content.
func FromData(data []byte) Fingerprint {
	sum := sha1.Sum(data)
	return FromBytes(sum[:])
}

// FromUint64 derives a deterministic synthetic fingerprint from a counter.
// Workload generators use it to mint unique fingerprints cheaply while
// preserving the uniform distribution real SHA-1 values have.
func FromUint64(v uint64) Fingerprint {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return FromData(buf[:])
}

// Parse decodes a 40-character hex string into a fingerprint.
func Parse(s string) (Fingerprint, error) {
	var raw [Size]byte
	if len(s) != hex.EncodedLen(Size) {
		return Zero, fmt.Errorf("fingerprint: parse %q: want %d hex chars, got %d",
			s, hex.EncodedLen(Size), len(s))
	}
	if _, err := hex.Decode(raw[:], []byte(s)); err != nil {
		return Zero, fmt.Errorf("fingerprint: parse %q: %w", s, err)
	}
	return FromBytes(raw[:]), nil
}

// Put writes the digest into the first Size bytes of dst.
func (fp Fingerprint) Put(dst []byte) {
	_ = dst[Size-1]
	binary.BigEndian.PutUint64(dst, fp.a)
	binary.BigEndian.PutUint64(dst[8:], fp.b)
	binary.BigEndian.PutUint32(dst[16:], fp.c)
}

// Append appends the digest to dst.
func (fp Fingerprint) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, fp.a)
	dst = binary.BigEndian.AppendUint64(dst, fp.b)
	return binary.BigEndian.AppendUint32(dst, fp.c)
}

// Bytes returns the digest.
func (fp Fingerprint) Bytes() (raw [Size]byte) {
	fp.Put(raw[:])
	return raw
}

// String returns the lowercase hex encoding of the fingerprint.
func (fp Fingerprint) String() string {
	raw := fp.Bytes()
	return hex.EncodeToString(raw[:])
}

// Short returns the first 8 hex characters, for logs.
func (fp Fingerprint) Short() string {
	raw := fp.Bytes()
	return hex.EncodeToString(raw[:4])
}

// Prefix64 returns the first 8 bytes as a big-endian uint64. The ring
// partitioner and the on-disk hash table both key off this prefix; SHA-1
// output is uniform, so the prefix is uniform too.
func (fp Fingerprint) Prefix64() uint64 { return fp.a }

// Bucket64 returns a second independent 64-bit value (bytes 8..16), used
// for the Bloom filter's bit positions, the cuckoo index and the node's lock
// stripes.
func (fp Fingerprint) Bucket64() uint64 { return fp.b }

// Tail32 returns the last 4 bytes as a big-endian uint32.
func (fp Fingerprint) Tail32() uint32 { return fp.c }
