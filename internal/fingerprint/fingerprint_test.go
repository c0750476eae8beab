package fingerprint

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFromDataMatchesSHA1(t *testing.T) {
	data := []byte("shhc test chunk")
	want := sha1.Sum(data)
	if got := FromData(data); got.Bytes() != want {
		t.Fatalf("FromData = %v, want %v", got, want)
	}
}

func TestParseRoundTrip(t *testing.T) {
	fp := FromData([]byte("round trip"))
	parsed, err := Parse(fp.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed != fp {
		t.Fatalf("Parse(String()) = %v, want %v", parsed, fp)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "empty", give: ""},
		{name: "short", give: "abcd"},
		{name: "long", give: strings.Repeat("a", 42)},
		{name: "nonhex", give: strings.Repeat("z", 40)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.give); err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tt.give)
			}
		})
	}
}

func TestZeroSentinel(t *testing.T) {
	if Zero != (Fingerprint{}) {
		t.Fatal("Zero is not the zero value")
	}
	if FromData(nil) == Zero {
		t.Fatal("FromData(nil) should not be the zero sentinel")
	}
}

func TestShort(t *testing.T) {
	fp := FromData([]byte("x"))
	if got, want := fp.Short(), fp.String()[:8]; got != want {
		t.Fatalf("Short() = %q, want %q", got, want)
	}
}

func TestPrefix64Distinct(t *testing.T) {
	a := FromData([]byte("a"))
	b := FromData([]byte("b"))
	if a.Prefix64() == b.Prefix64() {
		t.Fatal("distinct data produced identical prefixes (astronomically unlikely)")
	}
	if a.Prefix64() == a.Bucket64() {
		t.Fatal("Prefix64 and Bucket64 must draw from different digest bytes")
	}
}

func TestFromUint64Deterministic(t *testing.T) {
	if FromUint64(42) != FromUint64(42) {
		t.Fatal("FromUint64 not deterministic")
	}
	if FromUint64(42) == FromUint64(43) {
		t.Fatal("FromUint64 collided for adjacent counters")
	}
}

// Property: String/Parse round-trips for arbitrary fingerprints.
func TestQuickParseRoundTrip(t *testing.T) {
	f := func(raw [Size]byte) bool {
		fp := FromBytes(raw[:])
		parsed, err := Parse(fp.String())
		return err == nil && parsed == fp && fp.String() == hex.EncodeToString(raw[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the word representation is a faithful view of the digest. The
// bytes come back unchanged through every edge function, and the words are
// the big-endian reads of bytes 0–8, 8–16 and 16–20 — so ring placement,
// stripes, buckets and Bloom bits are where the [20]byte type put them.
func TestFingerprintBytesRoundTrip(t *testing.T) {
	f := func(raw [Size]byte, prefix []byte) bool {
		fp := FromBytes(raw[:])
		var put [Size]byte
		fp.Put(put[:])
		return fp.Bytes() == raw && put == raw &&
			bytes.Equal(fp.Append(prefix), append(prefix[:len(prefix):len(prefix)], raw[:]...)) &&
			fp.Prefix64() == binary.BigEndian.Uint64(raw[0:8]) &&
			fp.Bucket64() == binary.BigEndian.Uint64(raw[8:16]) &&
			fp.Tail32() == binary.BigEndian.Uint32(raw[16:20]) &&
			FromWords(fp.Prefix64(), fp.Bucket64(), fp.Tail32()) == fp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// nearby is a generator for pairs of digests that differ in few bytes (or
// none): independent random digests never tie on a prefix, which is the
// only interesting case for ==.
func nearby(a [Size]byte, at, n uint8, with byte) [Size]byte {
	b := a
	for i := 0; i < int(n%4); i++ {
		b[(int(at)+7*i)%Size] ^= with
	}
	return b
}

// Property: == on fingerprints is == on the digests.
func TestFingerprintOrderMatchesDigest(t *testing.T) {
	f := func(a [Size]byte, at, n uint8, with byte) bool {
		b := nearby(a, at, n, with)
		x, y := FromBytes(a[:]), FromBytes(b[:])
		return (x == y) == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintIsThreeWords guards the shape the hot paths rely on. Go's
// register ABI passes a struct of up to four integer words in registers and
// never an array of more than one element, so a [20]byte fingerprint was
// copied through the stack at every call. Five uint32 words would keep it at
// 20 bytes but push most hot calls back onto the stack (measured: +8 % on
// incr_hot against 1.65x for three words). The price is 24 bytes per
// []Fingerprint element; a pair with its 8-byte value is 32 either way.
func TestFingerprintIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(Fingerprint{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Fingerprint{}) = %d, want 24", got)
	}
	if Size != 20 {
		t.Fatalf("Size = %d, want the 20-byte encoded length", Size)
	}
}
