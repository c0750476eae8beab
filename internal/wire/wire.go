// Package wire defines SHHC's binary protocol between the web front-end
// (or any client) and the hash nodes.
//
// Frames are length-prefixed so a connection can carry pipelined,
// out-of-order responses, which the batching design of the paper relies on:
//
//	uint32  payload length (excluding this prefix, including type+id)
//	uint8   message type
//	uint64  request id (echoed in the response)
//	uint64  timeout, nanoseconds remaining, 0 = none (protocol >= 1 only)
//	...     type-specific payload
//
// All integers are big-endian. Fingerprints travel as raw 20-byte values.
//
// # Versioning
//
// Version 0 is the original frame layout with no deadline field and no
// Hello/Cancel frames. Version 1 adds:
//
//   - a Hello/HelloAck handshake: the client's first frame is a v0-layout
//     TypeHello carrying its highest supported version; the server answers
//     TypeHelloAck (v0 layout) with the negotiated version, and both sides
//     switch to that version's layout for every later frame. A v0 server
//     answers Hello with TypeError ("unsupported request type"), which a
//     v1 client treats as "peer speaks version 0" — old peers interoperate
//     with no configuration.
//   - a per-request deadline in the frame header, carried as the
//     *relative* time remaining (nanoseconds) rather than an absolute
//     timestamp, so clock skew between client and server cannot shrink
//     or extend it (the same reasoning as gRPC's wire timeouts); the
//     server derives a context.WithTimeout for the handler.
//   - TypeCancel: the ID names an in-flight request to abandon; the server
//     cancels that request's context. Cancel has no response frame (the
//     cancelled request itself answers with an error, or with its result
//     if it won the race).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"shhc/internal/fingerprint"
)

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
	// TypeBatchResult answers TypeBatch.
	TypeBatchResult
	// TypeStatsResult answers TypeStats.
	TypeStatsResult
	// TypePong answers TypePing.
	TypePong
	// TypeError reports a server-side failure for the echoed request id.
	TypeError

	// TypeHello opens version negotiation (payload: highest supported
	// version). Always sent and answered in the version-0 frame layout.
	TypeHello
	// TypeHelloAck answers TypeHello with the negotiated version.
	TypeHelloAck
	// TypeCancel abandons the in-flight request whose id it echoes.
	// No response frame. Protocol >= 1 only.
	TypeCancel

	// TypeRepair carries a replication backfill batch (protocol >= 4).
	// The payload is the same pair batch as TypeBatch and the answer is a
	// TypeBatchResult, but the verb marks the traffic as repair — the
	// receiving node applies it with lookup-or-insert semantics (existing
	// entries keep their stored value) and accounts it in the replication
	// stats block rather than the foreground counters.
	TypeRepair

	// TypeWindowUpdate grants flow-control credit (protocol >= 5): the
	// header's stream field names the stream and the payload carries the
	// number of bytes the receiver has consumed and returns to the
	// sender's window. Control traffic — never itself credit-charged.
	TypeWindowUpdate
)

// Protocol versions. Version 0 is the original deadline-less protocol;
// Version1 adds the deadline header field and the Hello/Cancel frames;
// Version2 keeps the frame layout of Version1 and extends the stats
// payload with the write-back destage counters; Version3 extends it again
// with the crash-recovery counters (journal replay plus the hash table's
// open-time repair pass); Version4 adds the TypeRepair backfill verb and
// the replication counters in the stats payload. Version5 is the
// multiplexed transport: frames gain a 4-byte stream id in the header,
// TypeWindowUpdate carries per-stream credit grants, TypeError payloads
// gain a compact error code (including the NOT_OWNER redirect carrying
// the true owner's id and address), and the stats payload grows the
// transport counters. Old peers negotiate down and receive/send their
// version's layouts (a pre-5 peer runs the legacy single-stream path; a
// pre-4 peer is repaired via plain TypeBatch instead of TypeRepair).
// Version6 keeps Version5's frame layout and extends the stats payload
// with the scalable Bloom filter's shape and accuracy counters (rates
// travel as fixed-point parts-per-billion; see StatsPayload).
const (
	Version0   = 0
	Version1   = 1
	Version2   = 2
	Version3   = 3
	Version4   = 4
	Version5   = 5
	Version6   = 6
	MaxVersion = Version6
)

func (t Type) String() string {
	switch t {
	case TypeLookup:
		return "lookup"
	case TypeLookupOrInsert:
		return "lookup-or-insert"
	case TypeBatch:
		return "batch"
	case TypeInsert:
		return "insert"
	case TypeStats:
		return "stats"
	case TypePing:
		return "ping"
	case TypeResult:
		return "result"
	case TypeBatchResult:
		return "batch-result"
	case TypeStatsResult:
		return "stats-result"
	case TypePong:
		return "pong"
	case TypeError:
		return "error"
	case TypeHello:
		return "hello"
	case TypeHelloAck:
		return "hello-ack"
	case TypeCancel:
		return "cancel"
	case TypeRepair:
		return "repair"
	case TypeWindowUpdate:
		return "window-update"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

const (
	headerSize = 1 + 8 // type + request id (length prefix not included)
	// headerSizeV1 adds the 8-byte timeout field.
	headerSizeV1 = headerSize + 8
	// headerSizeV5 adds the 4-byte stream id. Stream 0 is the legacy
	// single-stream path; nonzero ids name multiplexed logical streams.
	headerSizeV5 = headerSizeV1 + 4

	// MaxFrameSize bounds a frame to keep a misbehaving peer from forcing
	// huge allocations. 64 MiB admits batches of >2M fingerprints.
	MaxFrameSize = 64 << 20

	// pairSize is fingerprint + value on the wire.
	pairSize = fingerprint.Size + 8
	// resultSize is one lookup result on the wire: flags + source + value.
	resultSize = 1 + 1 + 8
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
	// timestamp — so peer clock skew cannot shrink or extend it. Carried
	// on the wire only at protocol version >= 1.
	Timeout time.Duration
	// Stream names the logical stream this frame belongs to. Carried on
	// the wire only at protocol version >= 5; 0 is the legacy
	// single-stream path that pre-5 peers implicitly use.
	Stream  uint32
	Payload []byte
}

// WriteFrame encodes and writes one frame in the version-0 layout.
func WriteFrame(w io.Writer, f Frame) error {
	return WriteFrameV(w, f, Version0)
}

// WriteFrameV encodes and writes one frame in the given protocol
// version's layout.
func WriteFrameV(w io.Writer, f Frame, version int) error {
	hs := headerSizeFor(version)
	n := hs + len(f.Payload)
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	// Stack header: the old per-call make was the hot path's top allocator.
	var hdr [4 + headerSizeV5]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = byte(f.Type)
	binary.BigEndian.PutUint64(hdr[5:13], f.ID)
	if version >= Version1 {
		binary.BigEndian.PutUint64(hdr[13:21], uint64(f.Timeout))
	}
	if version >= Version5 {
		binary.BigEndian.PutUint32(hdr[21:25], f.Stream)
	}
	if _, err := w.Write(hdr[:4+hs]); err != nil {
		return fmt.Errorf("wire: write frame header: %w", err)
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return fmt.Errorf("wire: write frame payload: %w", err)
		}
	}
	return nil
}

// ReadFrame reads and decodes one frame in the version-0 layout.
func ReadFrame(r io.Reader) (Frame, error) {
	return ReadFrameV(r, Version0)
}

// ReadFrameV reads and decodes one frame in the given protocol version's
// layout.
func ReadFrameV(r io.Reader, version int) (Frame, error) {
	hs := headerSizeFor(version)
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: read frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrameSize {
		return Frame{}, ErrFrameTooLarge
	}
	if n < uint32(hs) {
		return Frame{}, ErrShortPayload
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, fmt.Errorf("wire: read frame body: %w", err)
	}
	f := Frame{
		Type: Type(body[0]),
		ID:   binary.BigEndian.Uint64(body[1:9]),
	}
	if version >= Version1 {
		f.Timeout = time.Duration(binary.BigEndian.Uint64(body[9:17]))
	}
	if version >= Version5 {
		f.Stream = binary.BigEndian.Uint32(body[17:21])
	}
	f.Payload = body[hs:]
	return f, nil
}

// headerSizeFor returns the frame header size (beyond the length prefix)
// for the given protocol version's layout.
func headerSizeFor(version int) int {
	switch {
	case version >= Version5:
		return headerSizeV5
	case version >= Version1:
		return headerSizeV1
	default:
		return headerSize
	}
}

// EncodeHello encodes a Hello or HelloAck payload: the sender's highest
// supported (or the negotiated) protocol version.
func EncodeHello(version int) []byte {
	return AppendHello(make([]byte, 0, 4), version)
}

// DecodeHello decodes a Hello or HelloAck payload. Both the original
// 4-byte (version only) and the extended 8-byte (version + advertised
// window, protocol >= 5) layouts are accepted.
func DecodeHello(b []byte) (int, error) {
	if len(b) != 4 && len(b) != 8 {
		return 0, fmt.Errorf("wire: hello payload: want 4 or 8 bytes, got %d: %w", len(b), ErrShortPayload)
	}
	return int(binary.BigEndian.Uint32(b)), nil
}

// HelloWindow extracts the advertised per-stream flow-control window from
// an extended Hello/HelloAck payload. Returns 0 — "not advertised, grant
// immediately" — for the original 4-byte layout.
func HelloWindow(b []byte) uint32 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint32(b[4:8])
}

// PairPayload holds one fingerprint plus the value to assign on insert.
type PairPayload struct {
	FP  fingerprint.Fingerprint
	Val uint64
}

// EncodePair encodes a single fingerprint+value payload.
func EncodePair(p PairPayload) []byte {
	return AppendPair(make([]byte, 0, pairSize), p)
}

// DecodePair decodes a single fingerprint+value payload.
func DecodePair(b []byte) (PairPayload, error) {
	if len(b) != pairSize {
		return PairPayload{}, fmt.Errorf("wire: pair payload: want %d bytes, got %d: %w", pairSize, len(b), ErrShortPayload)
	}
	return PairPayload{FP: fingerprint.FromBytes(b), Val: binary.BigEndian.Uint64(b[fingerprint.Size:])}, nil
}

// EncodeFP encodes a bare fingerprint payload (TypeLookup).
func EncodeFP(fp fingerprint.Fingerprint) []byte {
	return AppendFP(make([]byte, 0, fingerprint.Size), fp)
}

// DecodeFP decodes a bare fingerprint payload.
func DecodeFP(b []byte) (fingerprint.Fingerprint, error) {
	if len(b) != fingerprint.Size {
		return fingerprint.Zero, fmt.Errorf("wire: fingerprint payload: want %d bytes, got %d: %w", fingerprint.Size, len(b), ErrShortPayload)
	}
	return fingerprint.FromBytes(b), nil
}

// EncodeBatch encodes a batch of pairs (TypeBatch).
func EncodeBatch(pairs []PairPayload) []byte {
	return AppendBatch(make([]byte, 0, 4+len(pairs)*pairSize), pairs)
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

// DecodeBatch decodes a batch of pairs.
func DecodeBatch(b []byte) ([]PairPayload, error) {
	count, err := BatchCount(b)
	if err != nil {
		return nil, err
	}
	pairs := make([]PairPayload, count)
	for i := range pairs {
		pairs[i] = PairAt(b, i)
	}
	return pairs, nil
}

// ResultPayload is one lookup answer on the wire.
type ResultPayload struct {
	Exists bool
	Source uint8
	Val    uint64
}

func encodeResultInto(buf []byte, r ResultPayload) {
	if r.Exists {
		buf[0] = 1
	} else {
		buf[0] = 0
	}
	buf[1] = r.Source
	binary.BigEndian.PutUint64(buf[2:10], r.Val)
}

func decodeResultFrom(buf []byte) ResultPayload {
	return ResultPayload{
		Exists: buf[0] == 1,
		Source: buf[1],
		Val:    binary.BigEndian.Uint64(buf[2:10]),
	}
}

// EncodeResult encodes a single lookup answer (TypeResult).
func EncodeResult(r ResultPayload) []byte {
	return AppendResult(make([]byte, 0, resultSize), r)
}

// DecodeResult decodes a single lookup answer.
func DecodeResult(b []byte) (ResultPayload, error) {
	if len(b) != resultSize {
		return ResultPayload{}, fmt.Errorf("wire: result payload: want %d bytes, got %d: %w", resultSize, len(b), ErrShortPayload)
	}
	return decodeResultFrom(b), nil
}

// EncodeBatchResult encodes a batch of answers (TypeBatchResult).
func EncodeBatchResult(rs []ResultPayload) []byte {
	return AppendBatchResult(make([]byte, 0, 4+len(rs)*resultSize), rs)
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

// DecodeBatchResult decodes a batch of answers.
func DecodeBatchResult(b []byte) ([]ResultPayload, error) {
	count, err := BatchResultCount(b)
	if err != nil {
		return nil, err
	}
	rs := make([]ResultPayload, count)
	for i := range rs {
		rs[i] = ResultAt(b, i)
	}
	return rs, nil
}

// EncodeError encodes a server error message (TypeError).
func EncodeError(msg string) []byte {
	return AppendError(make([]byte, 0, 2+len(msg)), msg)
}

// DecodeError decodes a server error message.
func DecodeError(b []byte) (string, error) {
	if len(b) < 2 {
		return "", fmt.Errorf("wire: error payload: missing length: %w", ErrShortPayload)
	}
	n := binary.BigEndian.Uint16(b[0:2])
	if len(b) != 2+int(n) {
		return "", fmt.Errorf("wire: error payload: want %d bytes, got %d: %w", 2+n, len(b), ErrShortPayload)
	}
	return string(b[2:]), nil
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

// summaryFields is the number of uint64 fields in a SummaryPayload.
const summaryFields = 8

// StatsPayload mirrors core.NodeStats for transport without importing core
// (core depends on nothing above it; wire stays at the bottom layer).
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
	// Recovery counters (protocol >= 3): what the node repaired at open.
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
	// Replication counters (protocol >= 4): repair/backfill traffic this
	// node absorbed as a replica target (batches applied, pairs examined,
	// entries actually created because they were missing).
	ReplRepairBatches uint64
	ReplRepairPairs   uint64
	ReplRepairCreated uint64
	// Transport counters (protocol >= 5): the multiplexed wire as the
	// node sees it — logical streams currently open across all conns,
	// times a response had to wait for stream credit, response bytes
	// queued but not yet flushed, WINDOW_UPDATE grants sent, and
	// NOT_OWNER redirects issued to stale-ring clients.
	TransportStreamsOpen     uint64
	TransportCreditStalls    uint64
	TransportBytesInFlight   uint64
	TransportWindowUpdates   uint64
	TransportRedirectsIssued uint64
	// Bloom counters (protocol >= 6): the scalable filter's shape and
	// accuracy. The two rates are fixed-point parts-per-billion (a rate
	// of 0.01 travels as 10_000_000); BloomSaturated is 0 or 1.
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

// statsCounterFields is the number of plain uint64 counters in a
// StatsPayload (everything after the ID, before the phase summaries);
// statsSummaryCount is the number of SummaryPayload digests that follow.
// Older layouts carry prefixes of the counter list: protocol < 2 stops
// before the destage fields, protocol 2 before the recovery fields,
// protocol 3 before the replication fields, protocol 4 before the
// transport fields, protocol 5 before the Bloom fields.
const (
	statsCounterFields       = 43
	statsSummaryCount        = 4
	v5StatsCounterFields     = 37
	v4StatsCounterFields     = 32
	v3StatsCounterFields     = 29
	v2StatsCounterFields     = 20
	legacyStatsCounterFields = 14
	legacyStatsSummaryCount  = 3
)

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

// statsLayout returns how many counters and summaries the given protocol
// version carries in a stats payload.
func statsLayout(version int) (counters, summaries int) {
	switch {
	case version >= Version6:
		return statsCounterFields, statsSummaryCount
	case version == Version5:
		return v5StatsCounterFields, statsSummaryCount
	case version == Version4:
		return v4StatsCounterFields, statsSummaryCount
	case version == Version3:
		return v3StatsCounterFields, statsSummaryCount
	case version == Version2:
		return v2StatsCounterFields, statsSummaryCount
	default:
		return legacyStatsCounterFields, legacyStatsSummaryCount
	}
}

// EncodeStats encodes node statistics (TypeStatsResult) in the newest
// layout.
func EncodeStats(s StatsPayload) []byte {
	return EncodeStatsV(s, MaxVersion)
}

// EncodeStatsV encodes node statistics in the given protocol version's
// layout: peers that negotiated below Version2 receive the legacy payload
// (without the destage fields), so stats interop survives version skew.
func EncodeStatsV(s StatsPayload, version int) []byte {
	nc, ns := statsLayout(version)
	return AppendStatsV(make([]byte, 0, 2+len(s.ID)+(nc+ns*summaryFields)*8), s, version)
}

// DecodeStats decodes node statistics. Every historical layout (the
// Version6 Bloom-extended one, the Version5 transport-extended one, the
// Version4 replication-extended one, the Version3 recovery-extended one,
// the Version2 destage-extended one, and the original) is accepted — the
// payload length distinguishes them, and absent fields decode as zero —
// so a new client can read an old server's stats regardless of what
// version the connection negotiated.
func DecodeStats(b []byte) (StatsPayload, error) {
	var s StatsPayload
	if len(b) < 2 {
		return s, fmt.Errorf("wire: stats payload: missing id length: %w", ErrShortPayload)
	}
	idLen := int(binary.BigEndian.Uint16(b[0:2]))
	nc, ns := statsLayout(MaxVersion)
	legacy := 2 + idLen + (legacyStatsCounterFields+legacyStatsSummaryCount*summaryFields)*8
	v2 := 2 + idLen + (v2StatsCounterFields+statsSummaryCount*summaryFields)*8
	v3 := 2 + idLen + (v3StatsCounterFields+statsSummaryCount*summaryFields)*8
	v4 := 2 + idLen + (v4StatsCounterFields+statsSummaryCount*summaryFields)*8
	v5 := 2 + idLen + (v5StatsCounterFields+statsSummaryCount*summaryFields)*8
	switch len(b) {
	case legacy:
		nc, ns = legacyStatsCounterFields, legacyStatsSummaryCount
	case v2:
		nc, ns = v2StatsCounterFields, statsSummaryCount
	case v3:
		nc, ns = v3StatsCounterFields, statsSummaryCount
	case v4:
		nc, ns = v4StatsCounterFields, statsSummaryCount
	case v5:
		nc, ns = v5StatsCounterFields, statsSummaryCount
	default:
		if want := 2 + idLen + (nc+ns*summaryFields)*8; len(b) != want {
			return s, fmt.Errorf("wire: stats payload: want %d (or %d / %d / %d / %d / legacy %d) bytes, got %d: %w", want, v5, v4, v3, v2, legacy, len(b), ErrShortPayload)
		}
	}
	s.ID = string(b[2 : 2+idLen])
	off := 2 + idLen
	for _, f := range s.counters()[:nc] {
		*f = binary.BigEndian.Uint64(b[off:])
		off += 8
	}
	for _, sum := range s.summaries()[:ns] {
		for _, f := range sum.fields() {
			*f = binary.BigEndian.Uint64(b[off:])
			off += 8
		}
	}
	return s, nil
}
