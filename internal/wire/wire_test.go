package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"shhc/internal/fingerprint"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: TypeBatch, ID: 42, Payload: []byte("hello")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if out.Type != in.Type || out.ID != in.ID || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TypePing, ID: 7}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if f.Type != TypePing || f.ID != 7 || len(f.Payload) != 0 {
		t.Fatalf("frame = %+v", f)
	}
}

func TestFramePipelining(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(0); i < 10; i++ {
		WriteFrame(&buf, Frame{Type: TypeLookup, ID: i, Payload: EncodeFP(fingerprint.FromUint64(i))})
	}
	for i := uint64(0); i < 10; i++ {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if f.ID != i {
			t.Fatalf("frame %d has ID %d", i, f.ID)
		}
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("after drain: %v, want EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := WriteFrame(io.Discard, Frame{Payload: make([]byte, MaxFrameSize)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame oversized = %v, want ErrFrameTooLarge", err)
	}
	// A length prefix claiming an oversized frame is rejected on read.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame oversized = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameShortHeader(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 3) // below headerSize
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("ReadFrame short = %v, want ErrShortPayload", err)
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{Type: TypeLookup, ID: 1, Payload: []byte("abcdef")})
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("ReadFrame of truncated body succeeded")
	}
}

func TestPairRoundTrip(t *testing.T) {
	in := PairPayload{FP: fingerprint.FromUint64(5), Val: 12345}
	out, err := DecodePair(EncodePair(in))
	if err != nil {
		t.Fatalf("DecodePair: %v", err)
	}
	if out != in {
		t.Fatalf("pair mismatch: %+v vs %+v", out, in)
	}
	if _, err := DecodePair([]byte("short")); err == nil {
		t.Fatal("DecodePair(short) succeeded")
	}
}

func TestFPRoundTrip(t *testing.T) {
	fp := fingerprint.FromUint64(9)
	out, err := DecodeFP(EncodeFP(fp))
	if err != nil || out != fp {
		t.Fatalf("fp round trip = (%v, %v)", out, err)
	}
	if _, err := DecodeFP(nil); err == nil {
		t.Fatal("DecodeFP(nil) succeeded")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	pairs := make([]PairPayload, 100)
	for i := range pairs {
		pairs[i] = PairPayload{FP: fingerprint.FromUint64(uint64(i)), Val: uint64(i * 3)}
	}
	out, err := DecodeBatch(EncodeBatch(pairs))
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(out) != len(pairs) {
		t.Fatalf("len = %d, want %d", len(out), len(pairs))
	}
	for i := range pairs {
		if out[i] != pairs[i] {
			t.Fatalf("pair %d mismatch", i)
		}
	}
}

func TestBatchEmptyAndErrors(t *testing.T) {
	out, err := DecodeBatch(EncodeBatch(nil))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch = (%v, %v)", out, err)
	}
	if _, err := DecodeBatch([]byte{1}); err == nil {
		t.Fatal("DecodeBatch(truncated count) succeeded")
	}
	bad := EncodeBatch([]PairPayload{{FP: fingerprint.FromUint64(1)}})
	if _, err := DecodeBatch(bad[:len(bad)-2]); err == nil {
		t.Fatal("DecodeBatch(truncated pairs) succeeded")
	}
}

func TestResultRoundTrip(t *testing.T) {
	tests := []ResultPayload{
		{Exists: true, Source: 1, Val: 77},
		{Exists: false, Source: 4, Val: 0},
	}
	for _, in := range tests {
		out, err := DecodeResult(EncodeResult(in))
		if err != nil || out != in {
			t.Fatalf("result round trip: %+v vs %+v (%v)", out, in, err)
		}
	}
	if _, err := DecodeResult([]byte{1}); err == nil {
		t.Fatal("DecodeResult(short) succeeded")
	}
}

func TestBatchResultRoundTrip(t *testing.T) {
	rs := []ResultPayload{
		{Exists: true, Source: 1, Val: 1},
		{Exists: false, Source: 2, Val: 2},
		{Exists: true, Source: 3, Val: 3},
	}
	out, err := DecodeBatchResult(EncodeBatchResult(rs))
	if err != nil {
		t.Fatalf("DecodeBatchResult: %v", err)
	}
	for i := range rs {
		if out[i] != rs[i] {
			t.Fatalf("result %d mismatch", i)
		}
	}
	if _, err := DecodeBatchResult([]byte{0, 0}); err == nil {
		t.Fatal("DecodeBatchResult(short) succeeded")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	msg, err := DecodeError(EncodeError("boom"))
	if err != nil || msg != "boom" {
		t.Fatalf("error round trip = (%q, %v)", msg, err)
	}
	if _, err := DecodeError([]byte{9}); err == nil {
		t.Fatal("DecodeError(short) succeeded")
	}
	long := make([]byte, 70000)
	for i := range long {
		long[i] = 'x'
	}
	msg, err = DecodeError(EncodeError(string(long)))
	if err != nil || len(msg) != 65535 {
		t.Fatalf("oversized error message handled badly: len=%d err=%v", len(msg), err)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := StatsPayload{
		ID: "node-3", Lookups: 1, Inserts: 2, CacheHits: 3, BloomShort: 4,
		StoreHits: 5, StoreMisses: 6, BloomFalse: 7, Coalesced: 14, StoreEntries: 8,
		CacheHitsLRU: 9, CacheMisses: 10, CacheEvicts: 11, CacheLen: 12, CacheCap: 13,
		DestageQueue: 50, DestageEntries: 51, DestagePages: 52, DestageWaves: 53,
		DestageCoalesced: 54, DestageHits: 55,
		BloomEntries: 70, BloomSizeBytes: 71, BloomSlices: 3,
		BloomFillPPB: 420_000_000, BloomFPRatePPB: 9_500_000, BloomSaturated: 1,
		PhaseCache:       SummaryPayload{Count: 20, SumNS: 21, MinNS: 22, MaxNS: 23, MeanNS: 24, P50NS: 25, P90NS: 26, P99NS: 27},
		PhaseBloom:       SummaryPayload{Count: 30, SumNS: 31, MinNS: 32, MaxNS: 33, MeanNS: 34, P50NS: 35, P90NS: 36, P99NS: 37},
		PhaseSSD:         SummaryPayload{Count: 40, SumNS: 41, MinNS: 42, MaxNS: 43, MeanNS: 44, P50NS: 45, P90NS: 46, P99NS: 47},
		DestageWaveSizes: SummaryPayload{Count: 60, SumNS: 61, MinNS: 62, MaxNS: 63, MeanNS: 64, P50NS: 65, P90NS: 66, P99NS: 67},
	}
	out, err := DecodeStats(EncodeStats(in))
	if err != nil {
		t.Fatalf("DecodeStats: %v", err)
	}
	if out != in {
		t.Fatalf("stats mismatch:\n got %+v\nwant %+v", out, in)
	}
	if _, err := DecodeStats([]byte{0}); err == nil {
		t.Fatal("DecodeStats(short) succeeded")
	}
}

func TestStatsLegacyLayoutInterop(t *testing.T) {
	// A peer that negotiated below Version2 sends and expects the
	// pre-destage stats layout; DecodeStats must accept it with the
	// destage fields zeroed, so stats interop survives version skew.
	in := StatsPayload{
		ID: "old-peer", Lookups: 1, Inserts: 2, CacheHits: 3, BloomShort: 4,
		StoreHits: 5, StoreMisses: 6, BloomFalse: 7, Coalesced: 8, StoreEntries: 9,
		CacheHitsLRU: 10, CacheMisses: 11, CacheEvicts: 12, CacheLen: 13, CacheCap: 14,
		// Destage fields set on purpose: the legacy encoding must drop
		// them, not smuggle them into the payload.
		DestageQueue: 99, DestageEntries: 98,
		PhaseCache:       SummaryPayload{Count: 20, MaxNS: 23},
		PhaseBloom:       SummaryPayload{Count: 30, MaxNS: 33},
		PhaseSSD:         SummaryPayload{Count: 40, MaxNS: 43},
		DestageWaveSizes: SummaryPayload{Count: 50, MaxNS: 53},
	}
	legacy := EncodeStatsV(in, Version1)
	if full := EncodeStatsV(in, Version2); len(legacy) >= len(full) {
		t.Fatalf("legacy payload (%d bytes) not smaller than v2 payload (%d bytes)", len(legacy), len(full))
	}
	out, err := DecodeStats(legacy)
	if err != nil {
		t.Fatalf("DecodeStats(legacy): %v", err)
	}
	if out.ID != in.ID || out.Lookups != in.Lookups || out.CacheCap != in.CacheCap ||
		out.PhaseSSD != in.PhaseSSD {
		t.Fatalf("legacy decode lost counters: %+v", out)
	}
	if out.DestageQueue != 0 || out.DestageEntries != 0 || out.DestageWaveSizes != (SummaryPayload{}) {
		t.Fatalf("legacy decode produced destage fields: %+v", out)
	}
}

func TestStatsV5LayoutInterop(t *testing.T) {
	// A Version5 peer's stats payload stops before the Bloom counters;
	// DecodeStats must accept it with those fields zeroed, and the v5
	// encoding must not smuggle Bloom fields onto the wire.
	in := StatsPayload{
		ID: "v5-peer", Lookups: 1, Inserts: 2, StoreEntries: 9,
		TransportStreamsOpen: 61, TransportRedirectsIssued: 65,
		BloomEntries: 70, BloomSizeBytes: 71, BloomSlices: 3,
		BloomFillPPB: 420_000_000, BloomFPRatePPB: 9_500_000, BloomSaturated: 1,
		PhaseSSD: SummaryPayload{Count: 40, MaxNS: 43},
	}
	v5 := EncodeStatsV(in, Version5)
	if v6 := EncodeStatsV(in, Version6); len(v5) >= len(v6) {
		t.Fatalf("v5 payload (%d bytes) not smaller than v6 payload (%d bytes)", len(v5), len(v6))
	}
	out, err := DecodeStats(v5)
	if err != nil {
		t.Fatalf("DecodeStats(v5): %v", err)
	}
	if out.ID != in.ID || out.Lookups != in.Lookups ||
		out.TransportStreamsOpen != in.TransportStreamsOpen ||
		out.TransportRedirectsIssued != in.TransportRedirectsIssued ||
		out.PhaseSSD != in.PhaseSSD {
		t.Fatalf("v5 decode lost counters: %+v", out)
	}
	if out.BloomEntries != 0 || out.BloomSlices != 0 || out.BloomFPRatePPB != 0 || out.BloomSaturated != 0 {
		t.Fatalf("v5 decode produced Bloom fields: %+v", out)
	}
}

func TestTypeStrings(t *testing.T) {
	for ty := TypeLookup; ty <= TypeError; ty++ {
		if s := ty.String(); s == "" || s[0] == 't' && s != "type(0)" && len(s) > 20 {
			t.Fatalf("Type(%d).String() = %q", ty, s)
		}
	}
	if Type(200).String() != "type(200)" {
		t.Fatalf("unknown type string = %q", Type(200).String())
	}
}

// Property: batch encode/decode round-trips arbitrary pair sets.
func TestQuickBatchRoundTrip(t *testing.T) {
	f := func(seeds []uint64) bool {
		pairs := make([]PairPayload, len(seeds))
		for i, s := range seeds {
			pairs[i] = PairPayload{FP: fingerprint.FromUint64(s), Val: s * 31}
		}
		out, err := DecodeBatch(EncodeBatch(pairs))
		if err != nil || len(out) != len(pairs) {
			return false
		}
		for i := range pairs {
			if out[i] != pairs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: frames round-trip arbitrary payloads through a stream.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(ty uint8, id uint64, payload []byte) bool {
		var buf bytes.Buffer
		in := Frame{Type: Type(ty), ID: id, Payload: payload}
		if err := WriteFrame(&buf, in); err != nil {
			return len(payload) > MaxFrameSize-headerSize
		}
		out, err := ReadFrame(&buf)
		return err == nil && out.Type == in.Type && out.ID == in.ID && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenBatchFrame pins the bytes a fingerprint travels as: whatever its
// in-memory representation, pair i of a TypeBatch frame is the 20 digest
// bytes then the value, big-endian, at payload offset 4+28i — after the
// 25-byte header of the current layout: length(4) type(1) id(8) timeout(8)
// stream(4).
func TestGoldenBatchFrame(t *testing.T) {
	const abc = "\xa9\x99\x3e\x36\x47\x06\x81\x6a\xba\x3e\x25\x71\x78\x50\xc2\x6c\x9c\xd0\xd8\x9d" // SHA-1("abc")
	pairs := []PairPayload{{FP: fingerprint.FromUint64(1), Val: 1}, {FP: fingerprint.FromData([]byte("abc")), Val: 0x0102030405060708}}
	var buf bytes.Buffer
	if err := WriteFrameV(&buf, Frame{Type: TypeBatch, ID: 9, Stream: 3, Payload: EncodeBatch(pairs)}, MaxVersion); err != nil {
		t.Fatal(err)
	}
	const at = 25 + 4 + 28
	if got, want := buf.Bytes()[at:], abc+"\x01\x02\x03\x04\x05\x06\x07\x08"; string(got) != want {
		t.Fatalf("pair 1 of the frame = %x, want %x", got, want)
	}
	if got := PairAt(buf.Bytes()[25:], 1); got != pairs[1] {
		t.Fatalf("PairAt = %+v, want %+v", got, pairs[1])
	}
}
