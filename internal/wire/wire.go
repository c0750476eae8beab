// Package wire defines SHHC's binary protocol between the web front-end
// (or any client) and the hash nodes. docs/PROTOCOL.md is the normative
// description — layering, handshake, message and error tables, flow control,
// deadlines — and TestProtocolDocMatchesCode holds its tables to the
// constants declared here.
//
// Frames are length-prefixed so a connection can carry pipelined,
// out-of-order responses, which the batching design of the paper relies on:
//
//	uint32  frame length (excluding this prefix, including the header)
//	uint8   message type
//	uint64  request id (echoed in the response)
//	uint64  timeout, nanoseconds remaining, 0 = none
//	uint32  stream id, 0 = the control stream
//	uint64  routing generation the request was routed on, 0 = unrouted
//	...     type-specific payload
//
// All integers are big-endian. Fingerprints travel as raw 20-byte values.
//
// The deadline is carried as the *relative* time remaining rather than an
// absolute timestamp, so clock skew between client and server cannot shrink
// or extend it (the same reasoning as gRPC's wire timeouts); the server
// derives a context.WithTimeout for the handler.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/metrics"
)

// ProtocolVersion is the one protocol version this package speaks. Both
// sides of a connection state it in the Hello/HelloAck exchange; a peer
// that states another is refused with CodeVersionMismatch, never
// negotiated down to.
const ProtocolVersion = 10

// Type identifies a frame's payload.
type Type uint8

// Request and response frame types. The numbers are the wire's, written out
// so that deleting a type can never renumber the ones after it: 2 and 7
// (protocol 8's single-key lookup-or-insert and its result) are reserved and
// never reused.
//
// Every data request — lookup, batch, insert, repair — carries the same
// pair batch and is answered by a TypeBatchResult; the frame type alone
// picks what the node does with each pair.
const (
	// TypeLookup answers whether each pair's fingerprint is stored, without
	// inserting; the pairs' values are ignored.
	TypeLookup Type = 1
	// TypeBatch runs the Figure 4 flow for each pair: lookup, and insert
	// the pair's value if the fingerprint is new.
	TypeBatch Type = 3
	// TypeInsert unconditionally records each pair, overwriting; its
	// answers are all zero.
	TypeInsert Type = 4
	// TypeStats requests node statistics.
	TypeStats Type = 5
	// TypePing checks liveness.
	TypePing Type = 6

	// TypeBatchResult answers every data request: one answer per pair, in
	// order.
	TypeBatchResult Type = 8
	// TypeStatsResult answers TypeStats.
	TypeStatsResult Type = 9
	// TypePong answers TypePing.
	TypePong Type = 10
	// TypeError reports a server-side failure for the echoed request id.
	TypeError Type = 11

	// TypeHello is the first frame of every connection: the client's
	// protocol version and per-stream send window.
	TypeHello Type = 12
	// TypeHelloAck answers TypeHello with the server's version and window.
	TypeHelloAck Type = 13
	// TypeCancel abandons the in-flight request whose id it echoes. It has
	// no response frame: the cancelled request itself answers with an
	// error, or with its result if it won the race.
	TypeCancel Type = 14

	// TypeRepair carries a replication backfill batch with TypeBatch's
	// semantics (existing entries keep their stored value); the verb marks
	// the traffic as repair, so the receiving node accounts it in the
	// replication stats block rather than the foreground counters.
	TypeRepair Type = 15

	// TypeWindowUpdate grants flow-control credit: the header's stream
	// field names the stream and the payload carries the number of bytes
	// the receiver has consumed and returns to the sender's window.
	// Control traffic — never itself credit-charged.
	TypeWindowUpdate Type = 16

	// TypeRouting offers the node a routing record: it adopts one newer
	// than its own, and answers with the record it holds. A record with
	// generation 0 only reads.
	TypeRouting Type = 17
	// TypeRoutingResult answers TypeRouting with the node's record.
	TypeRoutingResult Type = 18
)

// typeNames is what Type.String prints, and the "Name" column of the
// message table in docs/PROTOCOL.md.
var typeNames = [...]string{
	TypeLookup:        "lookup",
	TypeBatch:         "batch",
	TypeInsert:        "insert",
	TypeStats:         "stats",
	TypePing:          "ping",
	TypeBatchResult:   "batch-result",
	TypeStatsResult:   "stats-result",
	TypePong:          "pong",
	TypeError:         "error",
	TypeHello:         "hello",
	TypeHelloAck:      "hello-ack",
	TypeCancel:        "cancel",
	TypeRepair:        "repair",
	TypeWindowUpdate:  "window-update",
	TypeRouting:       "routing",
	TypeRoutingResult: "routing-result",
}

func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

const (
	// headerSize is what a frame carries between its length prefix and its
	// payload: type + request id + timeout + stream id + generation.
	headerSize = 1 + 8 + 8 + 4 + 8

	// MaxFrameSize bounds a frame to keep a misbehaving peer from forcing
	// huge allocations. 64 MiB admits batches of >2M fingerprints.
	MaxFrameSize = 64 << 20

	// pairSize is fingerprint + value on the wire.
	pairSize = fingerprint.Size + 8
	// resultSize is one lookup result on the wire: flags + source + value.
	resultSize = 1 + 1 + 8
	// helloSize is a Hello/HelloAck payload: version + window.
	helloSize = 4 + 4
	// maxString is the longest string a uint16 length prefix can carry;
	// encoders truncate to it.
	maxString = 65535
)

// Frame errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrShortPayload  = errors.New("wire: payload shorter than its header claims")
)

// Frame is a decoded message envelope.
type Frame struct {
	Type Type
	ID   uint64
	// Timeout is the time remaining until the request's deadline; 0
	// means none. It travels as a relative duration — never an absolute
	// timestamp — so peer clock skew cannot shrink or extend it.
	Timeout time.Duration
	// Stream names the logical stream this frame belongs to; 0 is the
	// control stream, which is never credit-charged.
	Stream uint32
	// Gen is the routing generation the request was routed on; 0 means
	// unrouted, which a node serves whatever its own generation.
	Gen     uint64
	Payload []byte
}

// putHeader writes f's length prefix and header into hdr. It is the only
// place a frame header is encoded; FrameWriter and MuxWriter both call it.
func putHeader(hdr *[4 + headerSize]byte, f *Frame) error {
	n := headerSize + len(f.Payload)
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = byte(f.Type)
	binary.BigEndian.PutUint64(hdr[5:13], f.ID)
	binary.BigEndian.PutUint64(hdr[13:21], uint64(f.Timeout))
	binary.BigEndian.PutUint32(hdr[21:25], f.Stream)
	binary.BigEndian.PutUint64(hdr[25:33], f.Gen)
	return nil
}

// parseHeader decodes a frame body — everything after the length prefix,
// which ReadFrame has checked holds at least headerSize bytes. The
// returned frame's Payload aliases body.
func parseHeader(body []byte) Frame {
	return Frame{
		Type:    Type(body[0]),
		ID:      binary.BigEndian.Uint64(body[1:9]),
		Timeout: time.Duration(binary.BigEndian.Uint64(body[9:17])),
		Stream:  binary.BigEndian.Uint32(body[17:21]),
		Gen:     binary.BigEndian.Uint64(body[21:29]),
		Payload: body[headerSize:],
	}
}

// appendString appends a uint16-length-prefixed string, truncated to
// maxString bytes.
func appendString(dst []byte, s string) []byte {
	if len(s) > maxString {
		s = s[:maxString]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// cutString decodes a uint16-length-prefixed string off the front of b and
// returns what follows it.
func cutString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("wire: missing length prefix: %w", ErrShortPayload)
	}
	n := int(binary.BigEndian.Uint16(b[0:2]))
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("wire: truncated string (want %d bytes, have %d): %w", n, len(b)-2, ErrShortPayload)
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// AppendHello appends a Hello or HelloAck payload to dst: the sender's
// protocol version and the per-stream send window it will charge itself.
// The peer uses the advertisement to coalesce its credit grants: it may
// withhold WINDOW_UPDATE frames until a quarter-window of credit is
// pending, which is only safe when it knows how big the window is.
func AppendHello(dst []byte, version int, window uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(version))
	return binary.BigEndian.AppendUint32(dst, window)
}

// DecodeHello decodes a Hello or HelloAck payload.
func DecodeHello(b []byte) (version int, window uint32, err error) {
	if len(b) != helloSize {
		return 0, 0, fmt.Errorf("wire: hello payload: want %d bytes, got %d: %w", helloSize, len(b), ErrShortPayload)
	}
	return int(binary.BigEndian.Uint32(b)), binary.BigEndian.Uint32(b[4:]), nil
}

// PairPayload holds one fingerprint plus the value to assign on insert.
type PairPayload struct {
	FP  fingerprint.Fingerprint
	Val uint64
}

// AppendPair appends one fingerprint+value pair to dst. The payload of
// every data request (TypeLookup, TypeBatch, TypeInsert, TypeRepair) is a
// uint32 count followed by that many pairs.
func AppendPair(dst []byte, p PairPayload) []byte {
	return binary.BigEndian.AppendUint64(p.FP.Append(dst), p.Val)
}

// BatchCount checks a data request's pair batch framing and returns how
// many pairs it holds. With PairAt it lets a caller decode straight into its
// own pair type, without a []PairPayload in between.
func BatchCount(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("wire: batch payload: missing count: %w", ErrShortPayload)
	}
	count := binary.BigEndian.Uint32(b[0:4])
	want := 4 + int(count)*pairSize
	if len(b) != want {
		return 0, fmt.Errorf("wire: batch payload: want %d bytes for %d pairs, got %d: %w", want, count, len(b), ErrShortPayload)
	}
	return int(count), nil
}

// PairAt decodes pair i of a payload BatchCount accepted.
func PairAt(b []byte, i int) PairPayload {
	b = b[4+i*pairSize:][:pairSize]
	return PairPayload{FP: fingerprint.FromBytes(b), Val: binary.BigEndian.Uint64(b[fingerprint.Size:])}
}

// ResultPayload is one lookup answer on the wire.
type ResultPayload struct {
	Exists bool
	Source uint8
	Val    uint64
}

// AppendResult appends one answer to dst. A TypeBatchResult payload is a
// uint32 count followed by that many answers.
func AppendResult(dst []byte, r ResultPayload) []byte {
	var exists byte
	if r.Exists {
		exists = 1
	}
	dst = append(dst, exists, r.Source)
	return binary.BigEndian.AppendUint64(dst, r.Val)
}

// BatchResultCount checks a TypeBatchResult payload's framing and returns
// how many answers it holds; ResultAt then decodes them one at a time.
func BatchResultCount(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("wire: batch result: missing count: %w", ErrShortPayload)
	}
	count := binary.BigEndian.Uint32(b[0:4])
	want := 4 + int(count)*resultSize
	if len(b) != want {
		return 0, fmt.Errorf("wire: batch result: want %d bytes for %d results, got %d: %w", want, count, len(b), ErrShortPayload)
	}
	return int(count), nil
}

// ResultAt decodes answer i of a payload BatchResultCount accepted.
func ResultAt(b []byte, i int) ResultPayload {
	b = b[4+i*resultSize:][:resultSize]
	return ResultPayload{Exists: b[0] == 1, Source: b[1], Val: binary.BigEndian.Uint64(b[2:])}
}

// AppendWindowUpdate appends a WINDOW_UPDATE payload to dst: the number of
// bytes of credit the receiver grants back to the sender's window for the
// stream named in the frame header.
func AppendWindowUpdate(dst []byte, credit uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, credit)
}

// DecodeWindowUpdate decodes a WINDOW_UPDATE payload.
func DecodeWindowUpdate(b []byte) (uint32, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("wire: window update payload: want 4 bytes, got %d: %w", len(b), ErrShortPayload)
	}
	return binary.BigEndian.Uint32(b), nil
}

// RoutingPayload is a routing record on the wire (TypeRouting and
// TypeRoutingResult): the generation, the ring's shape and its members.
type RoutingPayload struct {
	Gen      uint64
	VNodes   uint32
	Replicas uint32
	Members  []string
}

// AppendRouting appends a routing record to dst: gen, vnodes, replicas, a
// uint32 count, then that many member ids as strings.
func AppendRouting(dst []byte, r RoutingPayload) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.Gen)
	dst = binary.BigEndian.AppendUint32(dst, r.VNodes)
	dst = binary.BigEndian.AppendUint32(dst, r.Replicas)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Members)))
	for _, m := range r.Members {
		dst = appendString(dst, m)
	}
	return dst
}

// DecodeRouting decodes a routing record. A member count the payload
// cannot hold is refused before anything is allocated, and so are bytes
// after the last member.
func DecodeRouting(b []byte) (RoutingPayload, error) {
	if len(b) < 20 {
		return RoutingPayload{}, fmt.Errorf("wire: routing payload: %d bytes: %w", len(b), ErrShortPayload)
	}
	r := RoutingPayload{
		Gen:      binary.BigEndian.Uint64(b),
		VNodes:   binary.BigEndian.Uint32(b[8:]),
		Replicas: binary.BigEndian.Uint32(b[12:]),
	}
	count, rest := binary.BigEndian.Uint32(b[16:]), b[20:]
	if uint64(count)*2 > uint64(len(rest)) {
		return RoutingPayload{}, fmt.Errorf("wire: routing payload: %d members cannot fit in %d bytes: %w", count, len(rest), ErrShortPayload)
	}
	r.Members = make([]string, count)
	var err error
	for i := range r.Members {
		if r.Members[i], rest, err = cutString(rest); err != nil {
			return RoutingPayload{}, fmt.Errorf("wire: routing member %d: %w", i, err)
		}
	}
	if len(rest) != 0 {
		return RoutingPayload{}, fmt.Errorf("wire: routing payload: %d trailing bytes: %w", len(rest), ErrShortPayload)
	}
	return r, nil
}

// statsFieldMin is the smallest (name, value) pair a stats-result payload
// can carry: an empty name's length prefix and the value.
const statsFieldMin = 2 + 8

// AppendStats appends node statistics (TypeStatsResult) to dst: the node
// id, a uint32 count, then that many (name, uint64) pairs. The names and
// what their values mean are the sender's stats schema (metrics.Fields);
// wire only carries them.
func AppendStats(dst []byte, id string, fs []metrics.Field) []byte {
	dst = appendString(dst, id)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(fs)))
	for _, f := range fs {
		dst = binary.BigEndian.AppendUint64(appendString(dst, f.Name), f.Bits)
	}
	return dst
}

// DecodeStats decodes node statistics. The payload is untrusted: a count
// its bytes cannot hold is refused before anything is allocated, and so is
// a name that overruns the payload or a byte past the last pair.
func DecodeStats(b []byte) (string, []metrics.Field, error) {
	id, rest, err := cutString(b)
	if err != nil {
		return "", nil, fmt.Errorf("wire: stats payload id: %w", err)
	}
	if len(rest) < 4 {
		return "", nil, fmt.Errorf("wire: stats payload: missing count: %w", ErrShortPayload)
	}
	count := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(count)*statsFieldMin > uint64(len(rest)) {
		return "", nil, fmt.Errorf("wire: stats payload: %d counters cannot fit in %d bytes: %w", count, len(rest), ErrShortPayload)
	}
	fs := make([]metrics.Field, count)
	for i := range fs {
		if fs[i].Name, rest, err = cutString(rest); err != nil {
			return "", nil, fmt.Errorf("wire: stats counter %d name: %w", i, err)
		}
		if len(rest) < 8 {
			return "", nil, fmt.Errorf("wire: stats counter %q: truncated value: %w", fs[i].Name, ErrShortPayload)
		}
		fs[i].Bits = binary.BigEndian.Uint64(rest)
		rest = rest[8:]
	}
	if len(rest) != 0 {
		return "", nil, fmt.Errorf("wire: stats payload: %d trailing bytes: %w", len(rest), ErrShortPayload)
	}
	return id, fs, nil
}
