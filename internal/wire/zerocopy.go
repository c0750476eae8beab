package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"shhc/internal/fingerprint"
)

// This file is the zero-copy / zero-alloc layer of the wire protocol:
//
//   - Append* encoder variants that write into a caller-supplied slice
//     (amortized zero allocations when the caller reuses a buffer); the
//     classic Encode* functions are thin allocate-and-append wrappers.
//   - A pool of payload buffers (GetBuf/PutBuf). The pool stores *[]byte,
//     never bare []byte: a sync.Pool of slices boxes the slice header into
//     an interface on every Put, which is itself an allocation on the path
//     the pool exists to de-allocate.
//   - FrameWriter, which emits a frame as header+payload vectored I/O
//     (net.Buffers → one writev syscall on a TCP conn) with a reused
//     header, so writing a frame copies nothing and allocates nothing.
//   - ReadFrameVInto, which reads a frame's body into a pooled buffer and
//     hands the buffer back for explicit release, replacing the per-frame
//     make of ReadFrameV.
//
// Buffer ownership rule used by package rpc: whoever holds the *[]byte
// returned by GetBuf or ReadFrameVInto releases it with PutBuf exactly
// once, after the last use of any slice aliasing it (Frame.Payload aliases
// the read buffer; decoded values — pairs, results, stats, error strings —
// are copies and remain valid after release).

// maxPooledBuf bounds what PutBuf keeps: one giant frame (up to
// MaxFrameSize) must not pin 64 MiB in the pool forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetBuf returns a pooled buffer with length 0 and capacity at least n.
// Release it with PutBuf.
//
//shhc:returns-buf
func GetBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	*bp = (*bp)[:0]
	return bp
}

// PutBuf returns a buffer to the pool. nil is a no-op, so callers on paths
// that may or may not hold a buffer can release unconditionally. Oversized
// buffers are dropped for the GC instead of pinned in the pool.
//
//shhc:takes-buf bp
//lint:ignore bufown dropping an oversized buffer for the GC here IS the release; re-pooling it would pin maxPooledBuf-busting allocations forever.
func PutBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPooledBuf {
		return
	}
	bufPool.Put(bp)
}

// AppendHello appends a Hello/HelloAck payload to dst.
func AppendHello(dst []byte, version int) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(version))
}

// AppendHelloWindow appends a Hello/HelloAck payload that additionally
// advertises the sender's per-stream flow-control window (protocol >= 5).
// The peer uses the advertisement to coalesce its credit grants: it may
// withhold WINDOW_UPDATE frames until a quarter-window of credit is
// pending, which is only safe when it knows how big the window is.
func AppendHelloWindow(dst []byte, version int, window uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(version))
	return binary.BigEndian.AppendUint32(dst, window)
}

// AppendFP appends a bare fingerprint payload (TypeLookup) to dst.
func AppendFP(dst []byte, fp fingerprint.Fingerprint) []byte {
	return fp.Append(dst)
}

// AppendPair appends a fingerprint+value payload to dst.
func AppendPair(dst []byte, p PairPayload) []byte {
	return binary.BigEndian.AppendUint64(p.FP.Append(dst), p.Val)
}

// AppendBatch appends a batch of pairs (TypeBatch) to dst.
func AppendBatch(dst []byte, pairs []PairPayload) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(pairs)))
	for i := range pairs {
		dst = AppendPair(dst, pairs[i])
	}
	return dst
}

// AppendResult appends a single lookup answer (TypeResult) to dst.
func AppendResult(dst []byte, r ResultPayload) []byte {
	var exists byte
	if r.Exists {
		exists = 1
	}
	dst = append(dst, exists, r.Source)
	return binary.BigEndian.AppendUint64(dst, r.Val)
}

// AppendBatchResult appends a batch of answers (TypeBatchResult) to dst.
func AppendBatchResult(dst []byte, rs []ResultPayload) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rs)))
	for i := range rs {
		dst = AppendResult(dst, rs[i])
	}
	return dst
}

// AppendError appends a server error message (TypeError) to dst.
func AppendError(dst []byte, msg string) []byte {
	if len(msg) > 65535 {
		msg = msg[:65535]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// AppendStatsV appends node statistics in the given protocol version's
// layout to dst.
func AppendStatsV(dst []byte, s StatsPayload, version int) []byte {
	nc, ns := statsLayout(version)
	id := s.ID
	if len(id) > 65535 {
		id = id[:65535]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(id)))
	dst = append(dst, id...)
	for _, v := range s.counters()[:nc] {
		dst = binary.BigEndian.AppendUint64(dst, *v)
	}
	for _, sum := range s.summaries()[:ns] {
		for _, v := range sum.fields() {
			dst = binary.BigEndian.AppendUint64(dst, *v)
		}
	}
	return dst
}

// FrameWriter writes frames to one underlying writer as vectored I/O: the
// header lives in a reused field and header+payload go out together via
// net.Buffers, which a TCP connection turns into a single writev syscall —
// one syscall per frame, zero copies, zero allocations (the net poller
// caches its iovecs per-FD). Not safe for concurrent use; callers
// serialize writes (rpc holds its per-connection write mutex).
type FrameWriter struct {
	w   io.Writer
	hdr [4 + headerSizeV5]byte
	// arr is the permanent backing array for the vectored write and bufs
	// the net.Buffers view over it. WriteTo consumes the view in place, so
	// it is rebuilt from arr each call — reusing the consumed slice would
	// reallocate its backing array every frame.
	arr  [2][]byte
	bufs net.Buffers
}

// NewFrameWriter wraps w. For peak effect w should be a net.Conn that
// supports vectored writes (TCP does); any other writer degrades to two
// sequential Writes per frame, still copy-free.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w}
}

// WriteFrame writes one frame in the given protocol version's layout.
// f.Payload is only read during the call; the caller may release or reuse
// it as soon as WriteFrame returns.
func (fw *FrameWriter) WriteFrame(f Frame, version int) error {
	hs := headerSizeFor(version)
	n := hs + len(f.Payload)
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(fw.hdr[0:4], uint32(n))
	fw.hdr[4] = byte(f.Type)
	binary.BigEndian.PutUint64(fw.hdr[5:13], f.ID)
	if version >= Version1 {
		binary.BigEndian.PutUint64(fw.hdr[13:21], uint64(f.Timeout))
	}
	if version >= Version5 {
		binary.BigEndian.PutUint32(fw.hdr[21:25], f.Stream)
	}
	if len(f.Payload) == 0 {
		if _, err := fw.w.Write(fw.hdr[:4+hs]); err != nil {
			return fmt.Errorf("wire: write frame header: %w", err)
		}
		return nil
	}
	fw.arr[0], fw.arr[1] = fw.hdr[:4+hs], f.Payload
	fw.bufs = net.Buffers(fw.arr[:])
	_, err := fw.bufs.WriteTo(fw.w)
	// Drop the payload reference either way: a retained element would pin
	// the caller's pooled buffer past its release.
	fw.arr[1] = nil
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrameVInto reads one frame in the given protocol version's layout,
// placing its body in a pooled buffer. Frame.Payload aliases the returned
// buffer; the caller must PutBuf it after the payload's last use (the
// buffer is non-nil exactly when the error is nil).
//
//shhc:returns-buf
func ReadFrameVInto(r io.Reader, version int) (Frame, *[]byte, error) {
	hs := headerSizeFor(version)
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, nil, io.EOF
		}
		return Frame{}, nil, fmt.Errorf("wire: read frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrameSize {
		return Frame{}, nil, ErrFrameTooLarge
	}
	if n < uint32(hs) {
		return Frame{}, nil, ErrShortPayload
	}
	bp := GetBuf(int(n))
	body := (*bp)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		PutBuf(bp)
		return Frame{}, nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	*bp = body
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
	return f, bp, nil
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
