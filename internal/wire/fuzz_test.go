package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"shhc/internal/fingerprint"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader at every
// protocol layout and to every payload decoder. Nothing may panic; a
// frame that decodes must re-encode and decode back to itself (the codec
// is its own round-trip oracle).
func FuzzDecodeFrame(f *testing.F) {
	// Seeds: one well-formed frame per layout, plus payload shapes.
	var v0, v1, v5 bytes.Buffer
	WriteFrameV(&v0, Frame{Type: TypeLookup, ID: 7, Payload: EncodeFP(fingerprint.FromWords(0x0102<<48, 0, 0))}, Version0)
	WriteFrameV(&v1, Frame{Type: TypeBatch, ID: 9, Timeout: time.Second, Payload: EncodeBatch([]PairPayload{{Val: 3}})}, Version1)
	WriteFrameV(&v5, Frame{Type: TypeWindowUpdate, ID: 3, Stream: 12, Payload: AppendWindowUpdate(nil, 4096)}, Version5)
	f.Add(v0.Bytes())
	f.Add(v1.Bytes())
	f.Add(v5.Bytes())
	f.Add(EncodeStats(StatsPayload{ID: "node", Lookups: 1}))
	f.Add(EncodeError("boom"))
	f.Add(EncodeErrorCoded(ErrorPayload{Code: CodeNotOwner, Msg: "moved", OwnerID: "n2", OwnerAddr: "127.0.0.1:9"}))
	f.Add([]byte{0, 0, 0, 2, 1})    // length shorter than header
	f.Add([]byte{0xff, 0xff, 0xff}) // truncated length prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, version := range []int{Version0, Version1, Version5} {
			fr, err := ReadFrameV(bytes.NewReader(data), version)
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := WriteFrameV(&buf, fr, version); err != nil {
				t.Fatalf("v%d: re-encode of decoded frame failed: %v", version, err)
			}
			fr2, err := ReadFrameV(&buf, version)
			if err != nil {
				t.Fatalf("v%d: re-decode failed: %v", version, err)
			}
			if fr2.Type != fr.Type || fr2.ID != fr.ID || fr2.Timeout != fr.Timeout || fr2.Stream != fr.Stream || !bytes.Equal(fr2.Payload, fr.Payload) {
				t.Fatalf("v%d: round trip mutated frame: %+v -> %+v", version, fr, fr2)
			}
		}
		// Payload decoders must never panic on arbitrary input.
		DecodeHello(data)
		DecodePair(data)
		DecodeFP(data)
		DecodeBatch(data)
		DecodeResult(data)
		DecodeBatchResult(data)
		DecodeStats(data)
		DecodeError(data)
		DecodeErrorPayload(data)
		DecodeWindowUpdate(data)
	})
}

// FuzzMuxControl focuses the fuzzer on the protocol-5 control payloads —
// coded errors, window updates, the extended hello. None may panic on
// arbitrary bytes; anything that decodes must survive a re-encode/decode
// round trip.
func FuzzMuxControl(f *testing.F) {
	f.Add(EncodeErrorCoded(ErrorPayload{Code: CodeNotOwner, Msg: "moved", OwnerID: "n2", OwnerAddr: "127.0.0.1:9"}))
	f.Add(EncodeErrorCoded(ErrorPayload{Code: CodeDeadline, Msg: "context deadline exceeded"}))
	f.Add(EncodeError("legacy error"))
	f.Add(AppendWindowUpdate(nil, 1<<18))
	f.Add(AppendHelloWindow(nil, Version5, DefaultWindow))
	f.Add(EncodeHello(Version1))
	f.Add([]byte{0xff, 0xff, 4}) // sentinel + code, truncated fields

	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := DecodeErrorPayload(data); err == nil &&
			len(e.Msg) <= 65534 && len(e.OwnerID) <= 65534 && len(e.OwnerAddr) <= 65534 {
			// (the encoder truncates fields past 65534 bytes, which a
			// legacy 65535-byte message would trip — not a round-trip bug)
			e2, err := DecodeErrorPayload(EncodeErrorCoded(e))
			if err != nil {
				t.Fatalf("re-decode of coded error failed: %v", err)
			}
			if e2 != e {
				t.Fatalf("coded error round trip mutated payload: %+v -> %+v", e, e2)
			}
		}
		if n, err := DecodeWindowUpdate(data); err == nil {
			m, err := DecodeWindowUpdate(AppendWindowUpdate(nil, n))
			if err != nil || m != n {
				t.Fatalf("window update round trip: %d -> %d, %v", n, m, err)
			}
		}
		if v, err := DecodeHello(data); err == nil {
			win := HelloWindow(data)
			rt := AppendHelloWindow(nil, v, win)
			v2, err := DecodeHello(rt)
			if err != nil || v2 != v || HelloWindow(rt) != win {
				t.Fatalf("hello round trip: (%d,%d) -> (%d,%d), %v", v, win, v2, HelloWindow(rt), err)
			}
		}
	})
}

// FuzzStatsRoundTrip encodes a fuzzed StatsPayload at every protocol
// version and asserts the decoder recovers exactly the fields that
// version carries, with the rest zero.
func FuzzStatsRoundTrip(f *testing.F) {
	f.Add("node-a", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add("", []byte{})
	f.Add(strings.Repeat("x", 300), bytes.Repeat([]byte{0xab}, 400))

	f.Fuzz(func(t *testing.T, id string, data []byte) {
		var s StatsPayload
		s.ID = id
		next := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			var b [8]byte
			n := copy(b[:], data)
			data = data[n:]
			return binary.BigEndian.Uint64(b[:])
		}
		for _, c := range s.counters() {
			*c = next()
		}
		for _, sum := range s.summaries() {
			for _, field := range sum.fields() {
				*field = next()
			}
		}

		for _, version := range []int{Version0, Version1, Version2, Version3, Version4, Version5} {
			enc := EncodeStatsV(s, version)
			dec, err := DecodeStats(enc)
			if err != nil {
				t.Fatalf("v%d: DecodeStats of own encoding failed: %v", version, err)
			}
			wantID := id
			if len(wantID) > 65535 {
				wantID = wantID[:65535]
			}
			if dec.ID != wantID {
				t.Fatalf("v%d: id %q -> %q", version, wantID, dec.ID)
			}
			nc, ns := statsLayout(version)
			for i, c := range s.counters() {
				got := *dec.counters()[i]
				want := *c
				if i >= nc {
					want = 0 // not carried at this version
				}
				if got != want {
					t.Fatalf("v%d: counter %d = %d, want %d", version, i, got, want)
				}
			}
			for i, sum := range s.summaries() {
				for j, field := range sum.fields() {
					got := *dec.summaries()[i].fields()[j]
					want := *field
					if i >= ns {
						want = 0
					}
					if got != want {
						t.Fatalf("v%d: summary %d field %d = %d, want %d", version, i, j, got, want)
					}
				}
			}
		}
	})
}

// TestMalformedFrames is the deterministic companion to the fuzzers: a
// table of hostile inputs the codec must reject with an error — never a
// panic, never a garbage frame.
func TestMalformedFrames(t *testing.T) {
	frame := func(version int, f Frame) []byte {
		var buf bytes.Buffer
		if err := WriteFrameV(&buf, f, version); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := frame(Version1, Frame{Type: TypeLookup, ID: 1, Payload: EncodeFP(fingerprint.FromWords(9<<56, 0, 0))})

	cases := []struct {
		name    string
		data    []byte
		version int
	}{
		{"empty", nil, Version0},
		{"truncated length prefix", []byte{0, 0, 1}, Version0},
		{"length below v0 header", []byte{0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8}, Version0},
		{"length below v1 header", frame(Version0, Frame{Type: TypePing, ID: 1}), Version1},
		{"length above MaxFrameSize", []byte{0xff, 0xff, 0xff, 0xff}, Version0},
		{"body shorter than length", good[:len(good)-3], Version1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadFrameV(bytes.NewReader(tc.data), tc.version); err == nil {
				t.Fatalf("ReadFrameV accepted malformed input")
			}
		})
	}

	payloadCases := []struct {
		name   string
		decode func([]byte) error
		data   []byte
	}{
		{"hello wrong size", func(b []byte) error { _, err := DecodeHello(b); return err }, []byte{1, 2, 3}},
		{"pair short", func(b []byte) error { _, err := DecodePair(b); return err }, make([]byte, pairSize-1)},
		{"fp long", func(b []byte) error { _, err := DecodeFP(b); return err }, make([]byte, 21)},
		{"batch count lies", func(b []byte) error { _, err := DecodeBatch(b); return err },
			append([]byte{0, 0, 0, 9}, make([]byte, pairSize)...)},
		{"batch missing count", func(b []byte) error { _, err := DecodeBatch(b); return err }, []byte{1}},
		{"result short", func(b []byte) error { _, err := DecodeResult(b); return err }, make([]byte, resultSize-1)},
		{"batch result count lies", func(b []byte) error { _, err := DecodeBatchResult(b); return err },
			append([]byte{0, 0, 0, 2}, make([]byte, resultSize)...)},
		{"stats id length lies", func(b []byte) error { _, err := DecodeStats(b); return err },
			[]byte{0xff, 0xff, 1, 2, 3}},
		{"stats truncated counters", func(b []byte) error { _, err := DecodeStats(b); return err },
			EncodeStats(StatsPayload{ID: "n"})[:40]},
		{"error length lies", func(b []byte) error { _, err := DecodeError(b); return err },
			[]byte{0, 10, 'h', 'i'}},
		{"window update short", func(b []byte) error { _, err := DecodeWindowUpdate(b); return err },
			[]byte{1, 2, 3}},
		{"coded error truncated owner", func(b []byte) error { _, err := DecodeErrorPayload(b); return err },
			EncodeErrorCoded(ErrorPayload{Code: CodeNotOwner, OwnerID: "n2", OwnerAddr: "a:1"})[:9]},
		{"coded error trailing bytes", func(b []byte) error { _, err := DecodeErrorPayload(b); return err },
			append(EncodeErrorCoded(ErrorPayload{Code: CodeInternal, Msg: "x"}), 0)},
	}
	for _, tc := range payloadCases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(tc.data); err == nil {
				t.Fatalf("decoder accepted malformed payload")
			}
		})
	}
}

// TestStatsVersionSkewInterop pins the cross-version stats contract
// directly: a Version2 encoding (no recovery counters) decodes on a
// Version3 reader with recovery fields zero, and the Version3 encoding
// carries them through.
func TestStatsVersionSkewInterop(t *testing.T) {
	s := StatsPayload{
		ID:                      "skew",
		Lookups:                 11,
		DestageEntries:          22,
		RecoveryJournalReplayed: 33,
		RecoveryStoreTornPages:  44,
	}
	dec2, err := DecodeStats(EncodeStatsV(s, Version2))
	if err != nil {
		t.Fatalf("decode v2: %v", err)
	}
	if dec2.Lookups != 11 || dec2.DestageEntries != 22 {
		t.Fatalf("v2 lost pre-recovery fields: %+v", dec2)
	}
	if dec2.RecoveryJournalReplayed != 0 || dec2.RecoveryStoreTornPages != 0 {
		t.Fatalf("v2 encoding carried recovery fields it should not have: %+v", dec2)
	}
	dec3, err := DecodeStats(EncodeStatsV(s, Version3))
	if err != nil {
		t.Fatalf("decode v3: %v", err)
	}
	if dec3.RecoveryJournalReplayed != 33 || dec3.RecoveryStoreTornPages != 44 {
		t.Fatalf("v3 encoding dropped recovery fields: %+v", dec3)
	}
}
