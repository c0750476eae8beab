package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/metrics"
)

// The helpers below are the tests' view of the codec: frames go out through
// FrameWriter and come back through the pooled ReadFrame, and counted
// payloads are built the way package rpc does it — a uint32 count, then
// Append* per element.

func writeFrame(w io.Writer, f Frame) error { return NewFrameWriter(w).WriteFrame(f) }

// readFrame reads one frame and detaches its payload from the pooled
// buffer, which it releases.
func readFrame(r io.Reader) (Frame, error) {
	f, bp, err := ReadFrame(r)
	if err != nil {
		return Frame{}, err
	}
	f.Payload = append([]byte(nil), f.Payload...)
	PutBuf(bp)
	return f, nil
}

func frameBytes(t testing.TB, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func appendBatch(dst []byte, pairs []PairPayload) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(pairs)))
	for i := range pairs {
		dst = AppendPair(dst, pairs[i])
	}
	return dst
}

func appendBatchResult(dst []byte, rs []ResultPayload) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rs)))
	for i := range rs {
		dst = AppendResult(dst, rs[i])
	}
	return dst
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: TypeBatch, ID: 42, Payload: []byte("hello")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if out.Type != in.Type || out.ID != in.ID || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, Frame{Type: TypePing, ID: 7}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	f, err := readFrame(&buf)
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
		writeFrame(&buf, Frame{Type: TypeLookup, ID: i, Payload: appendBatch(nil, []PairPayload{{FP: fingerprint.FromUint64(i)}})})
	}
	for i := uint64(0); i < 10; i++ {
		f, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if f.ID != i {
			t.Fatalf("frame %d has ID %d", i, f.ID)
		}
	}
	if _, err := readFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("after drain: %v, want EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := writeFrame(io.Discard, Frame{Payload: make([]byte, MaxFrameSize)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame oversized = %v, want ErrFrameTooLarge", err)
	}
	// A length prefix claiming an oversized frame is rejected on read.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	if _, err := readFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame oversized = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameShortHeader(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], headerSize-1)
	if _, err := readFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("ReadFrame short = %v, want ErrShortPayload", err)
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, Frame{Type: TypeLookup, ID: 1, Payload: []byte("abcdef")})
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := readFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("ReadFrame of truncated body succeeded")
	}
}

// TestPairRoundTrip: a single-key call travels as a batch of one pair, and
// a batch of one a byte short of its pair is refused.
func TestPairRoundTrip(t *testing.T) {
	in := PairPayload{FP: fingerprint.FromUint64(5), Val: 12345}
	b := appendBatch(nil, []PairPayload{in})
	if n, err := BatchCount(b); err != nil || n != 1 {
		t.Fatalf("BatchCount = %d, %v; want 1", n, err)
	}
	if out := PairAt(b, 0); out != in {
		t.Fatalf("pair mismatch: %+v vs %+v", out, in)
	}
	if _, err := BatchCount(b[:len(b)-1]); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("BatchCount(short pair) = %v, want ErrShortPayload", err)
	}
}

// TestFPRoundTrip: every fingerprint, the all-zero and all-ones ones
// included, comes back from a pair as it went in.
func TestFPRoundTrip(t *testing.T) {
	var ones [fingerprint.Size]byte
	for i := range ones {
		ones[i] = 0xff
	}
	for _, fp := range []fingerprint.Fingerprint{fingerprint.Zero, fingerprint.FromBytes(ones[:]), fingerprint.FromUint64(9)} {
		if out := PairAt(appendBatch(nil, []PairPayload{{FP: fp}}), 0).FP; out != fp {
			t.Fatalf("fp round trip = %v, want %v", out, fp)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	pairs := make([]PairPayload, 100)
	for i := range pairs {
		pairs[i] = PairPayload{FP: fingerprint.FromUint64(uint64(i)), Val: uint64(i * 3)}
	}
	b := appendBatch(nil, pairs)
	n, err := BatchCount(b)
	if err != nil {
		t.Fatalf("BatchCount: %v", err)
	}
	if n != len(pairs) {
		t.Fatalf("len = %d, want %d", n, len(pairs))
	}
	for i := range pairs {
		if PairAt(b, i) != pairs[i] {
			t.Fatalf("pair %d mismatch", i)
		}
	}
}

func TestBatchEmptyAndErrors(t *testing.T) {
	n, err := BatchCount(appendBatch(nil, nil))
	if err != nil || n != 0 {
		t.Fatalf("empty batch = (%v, %v)", n, err)
	}
	if _, err := BatchCount([]byte{1}); err == nil {
		t.Fatal("BatchCount(truncated count) succeeded")
	}
	bad := appendBatch(nil, []PairPayload{{FP: fingerprint.FromUint64(1)}})
	if _, err := BatchCount(bad[:len(bad)-2]); err == nil {
		t.Fatal("BatchCount(truncated pairs) succeeded")
	}
}

// TestResultRoundTrip: a single-key call's answer is a batch-result of
// one, and one a byte short of its answer is refused.
func TestResultRoundTrip(t *testing.T) {
	tests := []ResultPayload{
		{Exists: true, Source: 1, Val: 77},
		{Exists: false, Source: 4, Val: 0},
	}
	for _, in := range tests {
		b := appendBatchResult(nil, []ResultPayload{in})
		if n, err := BatchResultCount(b); err != nil || n != 1 {
			t.Fatalf("BatchResultCount = %d, %v; want 1", n, err)
		}
		if out := ResultAt(b, 0); out != in {
			t.Fatalf("result round trip: %+v vs %+v", out, in)
		}
		if _, err := BatchResultCount(b[:len(b)-1]); !errors.Is(err, ErrShortPayload) {
			t.Fatalf("BatchResultCount(short answer) = %v, want ErrShortPayload", err)
		}
	}
}

func TestBatchResultRoundTrip(t *testing.T) {
	rs := []ResultPayload{
		{Exists: true, Source: 1, Val: 1},
		{Exists: false, Source: 2, Val: 2},
		{Exists: true, Source: 3, Val: 3},
	}
	b := appendBatchResult(nil, rs)
	if n, err := BatchResultCount(b); err != nil || n != len(rs) {
		t.Fatalf("BatchResultCount = %d, %v", n, err)
	}
	for i := range rs {
		if ResultAt(b, i) != rs[i] {
			t.Fatalf("result %d mismatch", i)
		}
	}
	if _, err := BatchResultCount([]byte{0, 0}); err == nil {
		t.Fatal("BatchResultCount(short) succeeded")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e, err := DecodeErrorPayload(AppendError(nil, ErrorPayload{Code: CodeStaleRoute, Msg: "boom", Arg: 1 << 40}))
	if err != nil || e.Msg != "boom" || e.Code != CodeStaleRoute || e.Arg != 1<<40 {
		t.Fatalf("error round trip = (%+v, %v)", e, err)
	}
	if _, err := DecodeErrorPayload([]byte{9}); err == nil {
		t.Fatal("DecodeErrorPayload(short) succeeded")
	}
	long := make([]byte, 70000)
	for i := range long {
		long[i] = 'x'
	}
	e, err = DecodeErrorPayload(AppendError(nil, ErrorPayload{Msg: string(long)}))
	if err != nil || len(e.Msg) != 65535 {
		t.Fatalf("oversized error message handled badly: len=%d err=%v", len(e.Msg), err)
	}
}

// TestStatsRoundTrip: a stats-result carries the id and any list of named
// counters — the names are the sender's, in its order — and a payload that
// stops after the id is refused.
func TestStatsRoundTrip(t *testing.T) {
	in := []metrics.Field{
		{Name: "lookups", Bits: 1},
		{Name: "bloom.fill_ratio", Bits: math.Float64bits(0.42)},
		{Name: "destage.wave_sizes.p99", Bits: math.MaxUint64},
		{Name: "", Bits: 7},
	}
	id, out, err := DecodeStats(AppendStats(nil, "node-3", in))
	if err != nil {
		t.Fatalf("DecodeStats: %v", err)
	}
	if id != "node-3" || !reflect.DeepEqual(out, in) {
		t.Fatalf("stats mismatch: got %q %+v, want node-3 %+v", id, out, in)
	}
	if id, out, err := DecodeStats(AppendStats(nil, "empty", nil)); err != nil || id != "empty" || len(out) != 0 {
		t.Fatalf("no counters: %q %+v %v", id, out, err)
	}
	if _, _, err := DecodeStats(appendString(nil, "n")); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("DecodeStats without a count = %v, want ErrShortPayload", err)
	}
}

func TestCancelFrameV1RoundTripCarriesTimeout(t *testing.T) {
	budget := 5 * time.Second
	in := Frame{Type: TypeLookup, ID: 42, Timeout: budget, Payload: []byte{1, 2, 3}}
	var buf bytes.Buffer
	if err := writeFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if out.Type != in.Type || out.ID != in.ID || out.Timeout != budget || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}

func TestRepairTypeString(t *testing.T) {
	if got := TypeRepair.String(); got != "repair" {
		t.Fatalf("TypeRepair.String() = %q, want repair", got)
	}
}

func TestCancelHelloRoundTrip(t *testing.T) {
	b := AppendHello(nil, ProtocolVersion, DefaultWindow)
	v, win, err := DecodeHello(b)
	if err != nil {
		t.Fatalf("DecodeHello: %v", err)
	}
	if v != ProtocolVersion || win != DefaultWindow {
		t.Fatalf("DecodeHello = (%d, %d), want (%d, %d)", v, win, ProtocolVersion, DefaultWindow)
	}
	if _, _, err := DecodeHello([]byte{1, 2}); err == nil {
		t.Fatal("short hello payload decoded without error")
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
		b := appendBatch(nil, pairs)
		n, err := BatchCount(b)
		if err != nil || n != len(pairs) {
			return false
		}
		for i := range pairs {
			if PairAt(b, i) != pairs[i] {
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
		if err := writeFrame(&buf, in); err != nil {
			return len(payload) > MaxFrameSize-headerSize
		}
		out, err := readFrame(&buf)
		return err == nil && out.Type == in.Type && out.ID == in.ID && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenBatchFrame pins the bytes a fingerprint travels as: whatever its
// in-memory representation, pair i of a TypeBatch frame is the 20 digest
// bytes then the value, big-endian, at payload offset 4+28i — after the
// 33-byte header: length(4) type(1) id(8) timeout(8) stream(4) gen(8).
func TestGoldenBatchFrame(t *testing.T) {
	const abc = "\xa9\x99\x3e\x36\x47\x06\x81\x6a\xba\x3e\x25\x71\x78\x50\xc2\x6c\x9c\xd0\xd8\x9d" // SHA-1("abc")
	pairs := []PairPayload{{FP: fingerprint.FromUint64(1), Val: 1}, {FP: fingerprint.FromData([]byte("abc")), Val: 0x0102030405060708}}
	var buf bytes.Buffer
	if err := writeFrame(&buf, Frame{Type: TypeBatch, ID: 9, Stream: 3, Gen: 7, Payload: appendBatch(nil, pairs)}); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[25:33]; string(got) != "\x00\x00\x00\x00\x00\x00\x00\x07" {
		t.Fatalf("generation field = %x, want 7", got)
	}
	const at = 33 + 4 + 28
	if got, want := buf.Bytes()[at:], abc+"\x01\x02\x03\x04\x05\x06\x07\x08"; string(got) != want {
		t.Fatalf("pair 1 of the frame = %x, want %x", got, want)
	}
	if got := PairAt(buf.Bytes()[33:], 1); got != pairs[1] {
		t.Fatalf("PairAt = %+v, want %+v", got, pairs[1])
	}
}

// TestGoldenHandshake pins the bytes that open every connection, and the
// refusal that may answer them: how a peer on another version learns that
// it is one, instead of misparsing what follows.
func TestGoldenHandshake(t *testing.T) {
	const (
		// length 37 = 29-byte header + 8-byte payload | type 12 (hello) |
		// id 5 | timeout 0 | stream 0 | gen 0 | version 10 | window 256 KiB
		hello = "\x00\x00\x00\x25" + "\x0c" + "\x00\x00\x00\x00\x00\x00\x00\x05" +
			"\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" +
			"\x00\x00\x00\x0a" + "\x00\x04\x00\x00"
		// the same with type 13 (hello-ack) and a 128 KiB window
		helloAck = "\x00\x00\x00\x25" + "\x0d" + "\x00\x00\x00\x00\x00\x00\x00\x05" +
			"\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" +
			"\x00\x00\x00\x0a" + "\x00\x02\x00\x00"
		// length 42 = 29 + 13 | type 11 (error) | id 5 | timeout 0 |
		// stream 0 | gen 0 | code 5 (VERSION_MISMATCH) | message "no" |
		// argument 0
		refusal = "\x00\x00\x00\x2a" + "\x0b" + "\x00\x00\x00\x00\x00\x00\x00\x05" +
			"\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" +
			"\x05" + "\x00\x02no" + "\x00\x00\x00\x00\x00\x00\x00\x00"
	)
	if ProtocolVersion != 10 {
		t.Fatalf("ProtocolVersion = %d: re-pin the golden bytes", ProtocolVersion)
	}
	got := frameBytes(t, Frame{Type: TypeHello, ID: 5, Payload: AppendHello(nil, ProtocolVersion, DefaultWindow)})
	if string(got) != hello {
		t.Fatalf("hello frame = %x, want %x", got, hello)
	}
	got = frameBytes(t, Frame{Type: TypeHelloAck, ID: 5, Payload: AppendHello(nil, ProtocolVersion, 128<<10)})
	if string(got) != helloAck {
		t.Fatalf("hello-ack frame = %x, want %x", got, helloAck)
	}
	f, err := readFrame(bytes.NewReader([]byte(helloAck)))
	if err != nil || f.Type != TypeHelloAck || f.ID != 5 {
		t.Fatalf("golden hello-ack reads back as %+v, %v", f, err)
	}
	if v, win, err := DecodeHello(f.Payload); err != nil || v != 10 || win != 128<<10 {
		t.Fatalf("golden hello-ack payload = (%d, %d, %v), want (10, 131072, nil)", v, win, err)
	}
	got = frameBytes(t, Frame{Type: TypeError, ID: 5, Payload: AppendError(nil, ErrorPayload{Code: CodeVersionMismatch, Msg: "no"})})
	if string(got) != refusal {
		t.Fatalf("VERSION_MISMATCH frame = %x, want %x", got, refusal)
	}
	f, err = readFrame(bytes.NewReader([]byte(refusal)))
	if err != nil || f.Type != TypeError || f.ID != 5 {
		t.Fatalf("golden refusal reads back as %+v, %v", f, err)
	}
	if e, err := DecodeErrorPayload(f.Payload); err != nil || e != (ErrorPayload{Code: CodeVersionMismatch, Msg: "no"}) {
		t.Fatalf("golden refusal payload = (%+v, %v), want VERSION_MISMATCH \"no\"", e, err)
	}
}
