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
)

// ProtocolVersion is the one protocol version this package speaks. Both
// sides of a connection state it in the Hello/HelloAck exchange; a peer
// that states another is refused with CodeVersionMismatch, never
// negotiated down to.
const ProtocolVersion = 7

// Type identifies a frame's payload.
type Type uint8

// Request and response frame types.
const (
	// TypeLookup asks whether a fingerprint exists (no insert).
	TypeLookup Type = iota + 1
	// TypeLookupOrInsert runs the Figure 4 flow for one fingerprint.
	TypeLookupOrInsert
	// TypeBatch runs the flow for a batch of fingerprints.
	TypeBatch
	// TypeInsert unconditionally records a fingerprint.
	TypeInsert
	// TypeStats requests node statistics.
	TypeStats
	// TypePing checks liveness.
	TypePing

	// TypeResult answers TypeLookup / TypeLookupOrInsert / TypeInsert.
	TypeResult
	// TypeBatchResult answers TypeBatch / TypeRepair.
	TypeBatchResult
	// TypeStatsResult answers TypeStats.
	TypeStatsResult
	// TypePong answers TypePing.
	TypePong
	// TypeError reports a server-side failure for the echoed request id.
	TypeError

	// TypeHello is the first frame of every connection: the client's
	// protocol version and per-stream send window.
	TypeHello
	// TypeHelloAck answers TypeHello with the server's version and window.
	TypeHelloAck
	// TypeCancel abandons the in-flight request whose id it echoes. It has
	// no response frame: the cancelled request itself answers with an
	// error, or with its result if it won the race.
	TypeCancel

	// TypeRepair carries a replication backfill batch. The payload is the
	// same pair batch as TypeBatch and the answer is a TypeBatchResult,
	// but the verb marks the traffic as repair — the receiving node
	// applies it with lookup-or-insert semantics (existing entries keep
	// their stored value) and accounts it in the replication stats block
	// rather than the foreground counters.
	TypeRepair

	// TypeWindowUpdate grants flow-control credit: the header's stream
	// field names the stream and the payload carries the number of bytes
	// the receiver has consumed and returns to the sender's window.
	// Control traffic — never itself credit-charged.
	TypeWindowUpdate
)

// typeNames is what Type.String prints, and the "Name" column of the
// message table in docs/PROTOCOL.md.
var typeNames = [...]string{
	TypeLookup:         "lookup",
	TypeLookupOrInsert: "lookup-or-insert",
	TypeBatch:          "batch",
	TypeInsert:         "insert",
	TypeStats:          "stats",
	TypePing:           "ping",
	TypeResult:         "result",
	TypeBatchResult:    "batch-result",
	TypeStatsResult:    "stats-result",
	TypePong:           "pong",
	TypeError:          "error",
	TypeHello:          "hello",
	TypeHelloAck:       "hello-ack",
	TypeCancel:         "cancel",
	TypeRepair:         "repair",
	TypeWindowUpdate:   "window-update",
}

func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

const (
	// headerSize is what a frame carries between its length prefix and its
	// payload: type + request id + timeout + stream id.
	headerSize = 1 + 8 + 8 + 4

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
	Stream  uint32
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

// AppendFP appends a bare fingerprint payload (TypeLookup) to dst.
func AppendFP(dst []byte, fp fingerprint.Fingerprint) []byte {
	return fp.Append(dst)
}

// DecodeFP decodes a bare fingerprint payload.
func DecodeFP(b []byte) (fingerprint.Fingerprint, error) {
	if len(b) != fingerprint.Size {
		return fingerprint.Zero, fmt.Errorf("wire: fingerprint payload: want %d bytes, got %d: %w", fingerprint.Size, len(b), ErrShortPayload)
	}
	return fingerprint.FromBytes(b), nil
}

// PairPayload holds one fingerprint plus the value to assign on insert.
type PairPayload struct {
	FP  fingerprint.Fingerprint
	Val uint64
}

// AppendPair appends a fingerprint+value payload to dst. A TypeBatch /
// TypeRepair payload is a uint32 count followed by that many pairs.
func AppendPair(dst []byte, p PairPayload) []byte {
	return binary.BigEndian.AppendUint64(p.FP.Append(dst), p.Val)
}

// DecodePair decodes a single fingerprint+value payload.
func DecodePair(b []byte) (PairPayload, error) {
	if len(b) != pairSize {
		return PairPayload{}, fmt.Errorf("wire: pair payload: want %d bytes, got %d: %w", pairSize, len(b), ErrShortPayload)
	}
	return PairPayload{FP: fingerprint.FromBytes(b), Val: binary.BigEndian.Uint64(b[fingerprint.Size:])}, nil
}

// BatchCount checks a TypeBatch/TypeRepair payload's framing and returns how
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

// AppendResult appends a single lookup answer (TypeResult) to dst. A
// TypeBatchResult payload is a uint32 count followed by that many answers.
func AppendResult(dst []byte, r ResultPayload) []byte {
	var exists byte
	if r.Exists {
		exists = 1
	}
	dst = append(dst, exists, r.Source)
	return binary.BigEndian.AppendUint64(dst, r.Val)
}

func decodeResultFrom(buf []byte) ResultPayload {
	return ResultPayload{
		Exists: buf[0] == 1,
		Source: buf[1],
		Val:    binary.BigEndian.Uint64(buf[2:10]),
	}
}

// DecodeResult decodes a single lookup answer.
func DecodeResult(b []byte) (ResultPayload, error) {
	if len(b) != resultSize {
		return ResultPayload{}, fmt.Errorf("wire: result payload: want %d bytes, got %d: %w", resultSize, len(b), ErrShortPayload)
	}
	return decodeResultFrom(b), nil
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
	off := 4 + i*resultSize
	return decodeResultFrom(b[off : off+resultSize])
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

// SummaryPayload is one latency-histogram digest on the wire. All
// durations travel as nanoseconds.
type SummaryPayload struct {
	Count  uint64
	SumNS  uint64
	MinNS  uint64
	MaxNS  uint64
	MeanNS uint64
	P50NS  uint64
	P90NS  uint64
	P99NS  uint64
}

// StatsPayload mirrors core.NodeStats for transport without importing core
// (core depends on nothing above it; wire stays at the bottom layer). It
// travels as the id, then every counter in declaration order, then the four
// summaries, eight fields each — all uint64.
// PhaseCache/PhaseBloom/PhaseSSD digest the per-tier latency of the node's
// two-phase lookup pipeline; the Destage* counters and DestageWaveSizes
// describe the write-back group-commit pipeline (DestageWaveSizes carries
// plain entry counts in its nanosecond fields).
type StatsPayload struct {
	ID               string
	Lookups          uint64
	Inserts          uint64
	CacheHits        uint64
	BloomShort       uint64
	StoreHits        uint64
	StoreMisses      uint64
	BloomFalse       uint64
	Coalesced        uint64
	StoreEntries     uint64
	CacheHitsLRU     uint64
	CacheMisses      uint64
	CacheEvicts      uint64
	CacheLen         uint64
	CacheCap         uint64
	DestageQueue     uint64
	DestageEntries   uint64
	DestagePages     uint64
	DestageWaves     uint64
	DestageCoalesced uint64
	DestageHits      uint64
	// Recovery counters: what the node repaired at open.
	// RecoveryJournalReplayed/TornBytes describe destage-journal replay;
	// the RecoveryStore* fields mirror the hash table's own open-time
	// recovery pass (hashdb.RecoveryStats).
	RecoveryJournalReplayed  uint64
	RecoveryJournalTornBytes uint64
	RecoveryStoreRuns        uint64
	RecoveryStorePagesScan   uint64
	RecoveryStoreTornPages   uint64
	RecoveryStoreTailBytes   uint64
	RecoveryStoreLinks       uint64
	RecoveryStoreOrphans     uint64
	RecoveryStoreSalvaged    uint64
	// Replication counters: repair/backfill traffic this node absorbed as
	// a replica target (batches applied, pairs examined, entries actually
	// created because they were missing).
	ReplRepairBatches uint64
	ReplRepairPairs   uint64
	ReplRepairCreated uint64
	// Transport counters: the multiplexed wire as the node sees it —
	// logical streams currently open across all conns, times a response
	// had to wait for stream credit, response bytes queued but not yet
	// flushed, WINDOW_UPDATE grants sent, and NOT_OWNER redirects issued
	// to stale-ring clients.
	TransportStreamsOpen     uint64
	TransportCreditStalls    uint64
	TransportBytesInFlight   uint64
	TransportWindowUpdates   uint64
	TransportRedirectsIssued uint64
	// Bloom counters: the scalable filter's shape and accuracy. The two
	// rates are fixed-point parts-per-billion (a rate of 0.01 travels as
	// 10_000_000); BloomSaturated is 0 or 1.
	BloomEntries     uint64
	BloomSizeBytes   uint64
	BloomSlices      uint64
	BloomFillPPB     uint64
	BloomFPRatePPB   uint64
	BloomSaturated   uint64
	PhaseCache       SummaryPayload
	PhaseBloom       SummaryPayload
	PhaseSSD         SummaryPayload
	DestageWaveSizes SummaryPayload
}

// statsFields is the number of uint64 values a stats payload carries after
// the id: 43 counters plus 4 summaries of 8 fields.
const statsFields = 43 + 4*8

func (s *StatsPayload) counters() []*uint64 {
	return []*uint64{
		&s.Lookups, &s.Inserts, &s.CacheHits, &s.BloomShort, &s.StoreHits,
		&s.StoreMisses, &s.BloomFalse, &s.Coalesced, &s.StoreEntries,
		&s.CacheHitsLRU, &s.CacheMisses, &s.CacheEvicts, &s.CacheLen, &s.CacheCap,
		&s.DestageQueue, &s.DestageEntries, &s.DestagePages, &s.DestageWaves,
		&s.DestageCoalesced, &s.DestageHits,
		&s.RecoveryJournalReplayed, &s.RecoveryJournalTornBytes,
		&s.RecoveryStoreRuns, &s.RecoveryStorePagesScan, &s.RecoveryStoreTornPages,
		&s.RecoveryStoreTailBytes, &s.RecoveryStoreLinks, &s.RecoveryStoreOrphans,
		&s.RecoveryStoreSalvaged,
		&s.ReplRepairBatches, &s.ReplRepairPairs, &s.ReplRepairCreated,
		&s.TransportStreamsOpen, &s.TransportCreditStalls, &s.TransportBytesInFlight,
		&s.TransportWindowUpdates, &s.TransportRedirectsIssued,
		&s.BloomEntries, &s.BloomSizeBytes, &s.BloomSlices,
		&s.BloomFillPPB, &s.BloomFPRatePPB, &s.BloomSaturated,
	}
}

func (s *StatsPayload) summaries() []*SummaryPayload {
	return []*SummaryPayload{&s.PhaseCache, &s.PhaseBloom, &s.PhaseSSD, &s.DestageWaveSizes}
}

func (p *SummaryPayload) fields() []*uint64 {
	return []*uint64{&p.Count, &p.SumNS, &p.MinNS, &p.MaxNS, &p.MeanNS, &p.P50NS, &p.P90NS, &p.P99NS}
}

// AppendStats appends node statistics (TypeStatsResult) to dst.
func AppendStats(dst []byte, s StatsPayload) []byte {
	dst = appendString(dst, s.ID)
	for _, v := range s.counters() {
		dst = binary.BigEndian.AppendUint64(dst, *v)
	}
	for _, sum := range s.summaries() {
		for _, v := range sum.fields() {
			dst = binary.BigEndian.AppendUint64(dst, *v)
		}
	}
	return dst
}

// DecodeStats decodes node statistics. The payload must be exactly the id
// plus statsFields values: a peer with a different counter list is a peer
// with a different ProtocolVersion, and the handshake has refused it.
func DecodeStats(b []byte) (StatsPayload, error) {
	var s StatsPayload
	id, rest, err := cutString(b)
	if err != nil {
		return s, fmt.Errorf("wire: stats payload id: %w", err)
	}
	if len(rest) != statsFields*8 {
		return s, fmt.Errorf("wire: stats payload: want %d bytes after the id, got %d: %w", statsFields*8, len(rest), ErrShortPayload)
	}
	s.ID = id
	for _, f := range s.counters() {
		*f = binary.BigEndian.Uint64(rest)
		rest = rest[8:]
	}
	for _, sum := range s.summaries() {
		for _, f := range sum.fields() {
			*f = binary.BigEndian.Uint64(rest)
			rest = rest[8:]
		}
	}
	return s, nil
}
