package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// This file is the I/O half of the wire protocol — everything that touches
// a socket or a pooled buffer, none of which copies or allocates per frame:
//
//   - A pool of payload buffers (GetBuf/PutBuf). The pool stores *[]byte,
//     never bare []byte: a sync.Pool of slices boxes the slice header into
//     an interface on every Put, which is itself an allocation on the path
//     the pool exists to de-allocate. The Append* encoders in wire.go write
//     into these.
//   - FrameWriter, which emits a frame as header+payload vectored I/O
//     (net.Buffers → one writev syscall on a TCP conn) with a reused
//     header.
//   - ReadFrame, which reads a frame's body into a pooled buffer and hands
//     the buffer back for explicit release.
//
// Buffer ownership rule used by package rpc: whoever holds the *[]byte
// returned by GetBuf or ReadFrame releases it with PutBuf exactly once,
// after the last use of any slice aliasing it (Frame.Payload aliases the
// read buffer; decoded values — pairs, results, stats, error strings — are
// copies and remain valid after release).

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

// FrameWriter writes frames to one underlying writer as vectored I/O: the
// header lives in a reused field and header+payload go out together via
// net.Buffers, which a TCP connection turns into a single writev syscall —
// one syscall per frame, zero copies, zero allocations (the net poller
// caches its iovecs per-FD). Not safe for concurrent use; callers
// serialize writes (rpc holds its per-connection write mutex).
type FrameWriter struct {
	w   io.Writer
	hdr [4 + headerSize]byte
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

// WriteFrame writes one frame. f.Payload is only read during the call; the
// caller may release or reuse it as soon as WriteFrame returns.
func (fw *FrameWriter) WriteFrame(f Frame) error {
	if err := putHeader(&fw.hdr, &f); err != nil {
		return err
	}
	if len(f.Payload) == 0 {
		if _, err := fw.w.Write(fw.hdr[:]); err != nil {
			return fmt.Errorf("wire: write frame header: %w", err)
		}
		return nil
	}
	fw.arr[0], fw.arr[1] = fw.hdr[:], f.Payload
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

// ReadFrame reads one frame, placing its body in a pooled buffer.
// Frame.Payload aliases the returned buffer; the caller must PutBuf it
// after the payload's last use (the buffer is non-nil exactly when the
// error is nil).
//
//shhc:returns-buf
func ReadFrame(r io.Reader) (Frame, *[]byte, error) {
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
	if n < headerSize {
		return Frame{}, nil, ErrShortPayload
	}
	bp := GetBuf(int(n))
	body := (*bp)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		PutBuf(bp)
		return Frame{}, nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	*bp = body
	return parseHeader(body), bp, nil
}
