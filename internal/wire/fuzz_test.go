package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/metrics"
)

// readChecked runs the pooled frame reader and holds it to its ownership
// contract on every path: a buffer comes back exactly when the error is
// nil (on every error path the reader has already released what it took).
func readChecked(t testing.TB, data []byte) (Frame, *[]byte, error) {
	t.Helper()
	fr, bp, err := ReadFrame(bytes.NewReader(data))
	if (bp == nil) != (err != nil) {
		t.Fatalf("ReadFrame returned buffer %v with error %v", bp != nil, err)
	}
	return fr, bp, err
}

// v8NotOwner is an error payload as a protocol-8 node sent NOT_OWNER: code
// 4, a message, and the owner's id and address in the two strings that are
// now reserved.
var v8NotOwner = []byte{4, 0, 5, 'm', 'o', 'v', 'e', 'd', 0, 2, 'n', '2', 0, 3, 'a', ':', '1'}

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader and to every
// payload decoder production calls. Nothing may panic; a frame or payload
// that decodes must re-encode to the bytes it was decoded from (the codec
// is its own round-trip oracle).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(frameBytes(f, Frame{Type: TypeLookup, ID: 7, Stream: 2, Payload: appendBatch(nil, []PairPayload{{FP: fingerprint.FromWords(0x0102<<48, 0, 0)}})}))
	f.Add(frameBytes(f, Frame{Type: TypeBatch, ID: 9, Timeout: time.Second, Payload: appendBatch(nil, []PairPayload{{Val: 3}})}))
	f.Add(frameBytes(f, Frame{Type: TypeWindowUpdate, ID: 3, Stream: 12, Payload: AppendWindowUpdate(nil, 4096)}))
	f.Add(AppendStats(nil, "node", []metrics.Field{{Name: "lookups", Bits: 1}}))
	f.Add(appendBatchResult(nil, []ResultPayload{{Exists: true, Source: 2, Val: 5}, {}}))
	f.Add(AppendError(nil, ErrorPayload{Code: CodeBadRequest, Msg: "rpc: unsupported request type type(2)"}))
	f.Add([]byte{0, 0, 0, 2, 1})    // length shorter than header
	f.Add([]byte{0xff, 0xff, 0xff}) // truncated length prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, bp, err := readChecked(t, data); err == nil {
			again := frameBytes(t, fr)
			PutBuf(bp)
			if !bytes.Equal(again, data[:len(again)]) {
				t.Fatalf("frame re-encodes to %x, was read from %x", again, data[:len(again)])
			}
		}

		if n, err := BatchCount(data); err == nil {
			pairs := make([]PairPayload, n)
			for i := range pairs {
				pairs[i] = PairAt(data, i)
			}
			if again := appendBatch(nil, pairs); !bytes.Equal(again, data) {
				t.Fatalf("batch re-encodes to %x, was %x", again, data)
			}
		}
		if n, err := BatchResultCount(data); err == nil {
			// Any byte but 1 reads as "absent", so answers compare as
			// values, not bytes.
			rs := make([]ResultPayload, n)
			for i := range rs {
				rs[i] = ResultAt(data, i)
			}
			again := appendBatchResult(nil, rs)
			if m, err := BatchResultCount(again); err != nil || m != n {
				t.Fatalf("batch result re-decode: %d results, %v; want %d", m, err, n)
			}
			for i := range rs {
				if got := ResultAt(again, i); got != rs[i] {
					t.Fatalf("result %d round trip: %+v -> %+v", i, rs[i], got)
				}
			}
		}
		if id, fs, err := DecodeStats(data); err == nil && !bytes.Equal(AppendStats(nil, id, fs), data) {
			t.Fatalf("stats re-encode differs from the %d bytes decoded", len(data))
		}
		fuzzControl(t, data)
	})
}

// fuzzControl is the shared body of the control-payload checks: coded
// errors, window updates, the hello. Whatever decodes re-encodes to the
// same bytes — except an error's reserved strings, which decode to nothing
// and re-encode empty, so an error compares as the value it decoded to.
func fuzzControl(t *testing.T, data []byte) {
	if e, err := DecodeErrorPayload(data); err == nil {
		if e2, err := DecodeErrorPayload(AppendError(nil, e)); err != nil || e2 != e {
			t.Fatalf("error payload round trip: %+v -> %+v, %v", e, e2, err)
		}
	}
	if n, err := DecodeWindowUpdate(data); err == nil && !bytes.Equal(AppendWindowUpdate(nil, n), data) {
		t.Fatalf("window update re-encodes to %x, was %x", AppendWindowUpdate(nil, n), data)
	}
	if v, win, err := DecodeHello(data); err == nil && !bytes.Equal(AppendHello(nil, v, win), data) {
		t.Fatalf("hello re-encodes to %x, was %x", AppendHello(nil, v, win), data)
	}
}

// FuzzMuxControl focuses the fuzzer on the control payloads — coded errors,
// window updates, the hello. None may panic on arbitrary bytes; anything
// that decodes must survive a re-encode unchanged.
func FuzzMuxControl(f *testing.F) {
	f.Add(v8NotOwner)
	f.Add(AppendError(nil, ErrorPayload{Code: CodeDeadline, Msg: "context deadline exceeded"}))
	f.Add(AppendError(nil, ErrorPayload{Code: CodeVersionMismatch, Msg: "peer offers protocol 6"}))
	f.Add(AppendWindowUpdate(nil, 1<<18))
	f.Add(AppendHello(nil, ProtocolVersion, DefaultWindow))
	f.Add(AppendHello(nil, ProtocolVersion+1, 0))
	f.Add([]byte{0xff, 0xff, 4}) // what opened a coded error before version 7

	f.Fuzz(fuzzControl)
}

// FuzzStatsRoundTrip encodes a fuzzed id and counter list and asserts the
// decoder recovers them exactly, and that every truncation of the encoding,
// and the encoding with a byte appended, is refused with ErrShortPayload.
func FuzzStatsRoundTrip(f *testing.F) {
	f.Add("node-a", "lookups,cache.hits", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add("", "", []byte{})
	f.Add(strings.Repeat("x", 300), "bloom.fill_ratio,,destage.wave_sizes.p99", bytes.Repeat([]byte{0xab}, 400))

	f.Fuzz(func(t *testing.T, id, names string, data []byte) {
		var fs []metrics.Field
		if names != "" {
			for _, name := range strings.Split(names, ",") {
				var b [8]byte
				data = data[copy(b[:], data):]
				fs = append(fs, metrics.Field{Name: name, Bits: binary.BigEndian.Uint64(b[:])})
			}
		}
		enc := AppendStats(nil, id, fs)
		gotID, got, err := DecodeStats(enc)
		if err != nil {
			t.Fatalf("DecodeStats of own encoding failed: %v", err)
		}
		for i := range fs {
			fs[i].Name = fs[i].Name[:min(len(fs[i].Name), maxString)]
		}
		if gotID != id[:min(len(id), maxString)] || len(got) != len(fs) || (len(fs) > 0 && !reflect.DeepEqual(got, fs)) {
			t.Fatalf("stats round trip:\n got %q %+v\nwant %q %+v", gotID, got, id, fs)
		}
		for n := range len(enc) {
			if _, _, err := DecodeStats(enc[:n]); !errors.Is(err, ErrShortPayload) {
				t.Fatalf("DecodeStats of the first %d of %d bytes: %v, want ErrShortPayload", n, len(enc), err)
			}
		}
		if _, _, err := DecodeStats(append(enc, 0)); !errors.Is(err, ErrShortPayload) {
			t.Fatalf("DecodeStats with a trailing byte: %v, want ErrShortPayload", err)
		}
	})
}

// TestMalformedFrames is the deterministic companion to the fuzzers: a
// table of hostile inputs the codec must reject with an error — never a
// panic, never a garbage frame.
func TestMalformedFrames(t *testing.T) {
	good := frameBytes(t, Frame{Type: TypeLookup, ID: 1, Payload: appendBatch(nil, []PairPayload{{FP: fingerprint.FromWords(9<<56, 0, 0)}})})

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated length prefix", []byte{0, 0, 1}},
		// Frames as peers older than the one header wrote them: a body
		// too short even for type+id, and one that is exactly type+id.
		{"length below v0 header", []byte{0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"length below v1 header", []byte{0, 0, 0, 9, byte(TypePing), 0, 0, 0, 0, 0, 0, 0, 1}},
		{"length above MaxFrameSize", []byte{0xff, 0xff, 0xff, 0xff}},
		{"body shorter than length", good[:len(good)-3]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, bp, err := readChecked(t, tc.data); err == nil {
				PutBuf(bp)
				t.Fatalf("ReadFrame accepted malformed input")
			}
		})
	}

	stats := AppendStats(nil, "n", []metrics.Field{{Name: "lookups", Bits: 1}, {Name: "cache.hits", Bits: 2}, {Name: "bloom_false"}})
	decodeError := func(b []byte) error { _, err := DecodeErrorPayload(b); return err }
	decodeStats := func(b []byte) error { _, _, err := DecodeStats(b); return err }
	decodeHello := func(b []byte) error { _, _, err := DecodeHello(b); return err }
	batchCount := func(b []byte) error { _, err := BatchCount(b); return err }
	batchResultCount := func(b []byte) error { _, err := BatchResultCount(b); return err }
	// frameBatch reads a whole frame and checks its pair batch, which is
	// what the server does first for every data verb.
	frameBatch := func(b []byte) error {
		f, bp, err := readChecked(t, b)
		if err != nil {
			return err
		}
		defer PutBuf(bp)
		_, err = BatchCount(f.Payload)
		return err
	}
	countLies := append([]byte{0, 0, 0, 9}, make([]byte, pairSize)...)
	onePair := appendBatch(nil, []PairPayload{{FP: fingerprint.FromUint64(1), Val: 2}})
	payloadCases := []struct {
		name   string
		decode func([]byte) error
		data   []byte
	}{
		{"hello wrong size", decodeHello, []byte{1, 2, 3}},
		{"hello wrong length (4 bytes)", decodeHello, []byte{0, 0, 0, ProtocolVersion}},
		{"pair short", batchCount, onePair[:len(onePair)-1]},
		// A batch of one whose fingerprint is a byte too long.
		{"fp long", batchCount, append(onePair[:4+fingerprint.Size:4+fingerprint.Size], append([]byte{0}, onePair[4+fingerprint.Size:]...)...)},
		{"batch count lies", batchCount, countLies},
		{"lookup count lies", frameBatch, frameBytes(t, Frame{Type: TypeLookup, ID: 2, Payload: countLies})},
		{"insert count lies", frameBatch, frameBytes(t, Frame{Type: TypeInsert, ID: 3, Payload: countLies})},
		{"batch missing count", batchCount, []byte{1}},
		{"result short", batchResultCount, appendBatchResult(nil, []ResultPayload{{Exists: true}})[:4+resultSize-1]},
		{"batch result count lies", batchResultCount, append([]byte{0, 0, 0, 2}, make([]byte, resultSize)...)},
		{"stats id length lies", decodeStats, []byte{0xff, 0xff, 1, 2, 3}},
		{"stats truncated counters", decodeStats, stats[:40]},
		// A count no payload of this size could hold, refused before the
		// decoder allocates a slice for it.
		{"stats count lies", decodeStats, []byte{0, 1, 'n', 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"stats name length lies", decodeStats, []byte{0, 0, 0, 0, 0, 1, 0xff, 0xff, 'x', 0, 0, 0, 0, 0, 0, 0, 0}},
		{"stats value truncated", decodeStats, stats[:len(stats)-1]},
		{"stats trailing bytes", decodeStats, append(stats[:len(stats):len(stats)], 0)},
		{"error length lies", decodeError, []byte{byte(CodeInternal), 0, 10, 'h', 'i'}},
		{"window update short", func(b []byte) error { _, err := DecodeWindowUpdate(b); return err }, []byte{1, 2, 3}},
		{"coded error truncated reserved string", decodeError, v8NotOwner[:len(v8NotOwner)-2]},
		{"coded error without reserved strings", decodeError, []byte{byte(CodeVersionMismatch), 0, 1, 'x'}},
		{"coded error trailing bytes", decodeError, append(AppendError(nil, ErrorPayload{Code: CodeInternal, Msg: "x"}), 0)},
		// The version-6 coded layout: 0xFFFF, code, then the strings.
		{"error payload with the old 0xFFFF sentinel", decodeError,
			append([]byte{0xff, 0xff}, AppendError(nil, ErrorPayload{Code: CodeDeadline, Msg: "late"})...)},
	}
	for _, tc := range payloadCases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(tc.data); err == nil {
				t.Fatalf("decoder accepted malformed payload")
			}
		})
	}
}
