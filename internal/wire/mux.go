package wire

import (
	"errors"
	"io"
	"net"
	"sync"
)

// This file is the stream-multiplexing layer of the wire protocol: many
// logical streams share one connection, each with an independent credit
// window, so a slow consumer exhausts only its own
// stream's credit while every other stream keeps flowing.
//
// MuxWriter is the sending half. Frames enqueue without blocking —
// callers (the server's read loop and handler goroutines) must never
// wait on a peer's consumption rate — and a dedicated flusher goroutine
// coalesces the head frames of every flushable stream, round-robin,
// into a single net.Buffers writev. A stream is flushable while its
// send window is positive; the window is charged the full payload size
// at flush (one oversized frame may drive it negative, blocking the
// stream until WINDOW_UPDATE grants restore it). Stream 0 is the
// control stream and is never credit-charged.
//
// Buffer ownership across the mux boundary: Enqueue and EnqueueControl
// take ownership of the frame's pooled payload buffer — the mux releases
// it with PutBuf after the frame reaches the socket (or when the writer
// shuts down). The caller must not touch the buffer after enqueueing,
// exactly as with PutBuf itself.

const (
	// DefaultWindow is the initial per-stream send-credit window. Large
	// enough that a stream consuming promptly never stalls (a full
	// 64-entry batch response is ~640 B; a window holds hundreds of
	// them), small enough that a stalled consumer pins at most 256 KiB
	// of queued responses.
	DefaultWindow = 256 << 10

	// maxCoalesce bounds how many frames one flush gathers into a single
	// writev (each frame contributes a header vector and a payload
	// vector; 64 frames stays well under the 1024-iovec syscall limit).
	maxCoalesce = 64
)

// ErrMuxClosed reports an enqueue on a closed MuxWriter.
var ErrMuxClosed = errors.New("wire: mux writer closed")

// muxFrame is one queued frame plus its pooled payload buffer and an
// optional after-flush hook.
type muxFrame struct {
	f       Frame
	bp      *[]byte
	onFlush func()
}

// muxStream is the sender-side state of one logical stream.
type muxStream struct {
	win     int64 // send credit remaining; may go negative
	q       []muxFrame
	inReady bool
}

// MuxWriter multiplexes frames from many logical streams onto one
// writer. Enqueue never blocks on peer consumption; a background flusher
// writes ready frames. Safe for concurrent use.
type MuxWriter struct {
	w      io.Writer
	window int64

	mu      sync.Mutex
	cond    *sync.Cond
	streams map[uint32]*muxStream
	ready   []uint32 // stream ids with a flushable head, FIFO round-robin
	ctrl    []muxFrame
	closed  bool
	err     error
	done    chan struct{}

	queuedBytes  int64
	creditStalls uint64

	// Flusher-only scratch: per-frame headers and the iovec list, reused
	// across flushes so a flush allocates nothing.
	hdrs [maxCoalesce][4 + headerSize]byte
	vecs net.Buffers
}

// NewMuxWriter wraps w (for peak effect a net.Conn, so the coalesced
// flush becomes one writev). window is the initial per-stream send
// credit; 0 means DefaultWindow. The returned writer owns a background
// flusher goroutine until Close.
func NewMuxWriter(w io.Writer, window int) *MuxWriter {
	if window <= 0 {
		window = DefaultWindow
	}
	m := &MuxWriter{
		w:       w,
		window:  int64(window),
		streams: make(map[uint32]*muxStream),
		done:    make(chan struct{}),
		vecs:    make(net.Buffers, 0, 2*maxCoalesce),
	}
	m.cond = sync.NewCond(&m.mu)
	go m.flushLoop()
	return m
}

func (s *muxStream) flushable(id uint32) bool {
	return len(s.q) > 0 && (id == 0 || s.win > 0)
}

// Enqueue queues a data frame on its stream (f.Stream) and takes
// ownership of bp, the pooled buffer backing f.Payload (nil when the
// payload is empty or unpooled) — the mux releases it after the flush.
// The frame is charged against the stream's send window when it flushes;
// if the window is exhausted the frame waits, without blocking the
// caller, until Grant restores credit. onFlush, if non-nil, runs after
// the frame's bytes reach the socket (used by the server to return
// request credit once the response has actually shipped).
//
//shhc:takes-buf bp
func (m *MuxWriter) Enqueue(f Frame, bp *[]byte, onFlush func()) error {
	return m.enqueue(muxFrame{f: f, bp: bp, onFlush: onFlush}, false)
}

// EnqueueControl queues a control frame (a WINDOW_UPDATE grant):
// never credit-charged and flushed ahead of data frames. Takes ownership
// of bp exactly as Enqueue does.
//
//shhc:takes-buf bp
func (m *MuxWriter) EnqueueControl(f Frame, bp *[]byte) error {
	return m.enqueue(muxFrame{f: f, bp: bp}, true)
}

func (m *MuxWriter) enqueue(fr muxFrame, control bool) error {
	m.mu.Lock()
	if m.closed || m.err != nil {
		err := m.err
		m.mu.Unlock()
		PutBuf(fr.bp)
		if err == nil {
			err = ErrMuxClosed
		}
		return err
	}
	if control {
		m.ctrl = append(m.ctrl, fr)
	} else {
		id := fr.f.Stream
		st := m.streams[id]
		if st == nil {
			st = &muxStream{win: m.window}
			m.streams[id] = st
		}
		st.q = append(st.q, fr)
		m.queuedBytes += int64(len(fr.f.Payload))
		if st.flushable(id) {
			if !st.inReady {
				st.inReady = true
				m.ready = append(m.ready, id)
			}
		} else if len(st.q) == 1 {
			// The head frame arrived into an exhausted window: the slow
			// consumer stalls itself, nobody else.
			m.creditStalls++
		}
	}
	m.cond.Signal()
	m.mu.Unlock()
	return nil
}

// Grant adds send credit to a stream (the receiving side consumed n
// bytes and returned them via WINDOW_UPDATE). Unblocks the stream's
// queued frames if the window turns positive.
func (m *MuxWriter) Grant(stream uint32, n int) {
	m.mu.Lock()
	st := m.streams[stream]
	if st == nil {
		// A grant for a stream with nothing queued just (re)creates its
		// state; keep the window capped at initial so a peer cannot
		// inflate its credit beyond what we ever charged.
		m.mu.Unlock()
		return
	}
	st.win += int64(n)
	if st.win > m.window {
		st.win = m.window
	}
	if st.flushable(stream) && !st.inReady {
		st.inReady = true
		m.ready = append(m.ready, stream)
		m.cond.Signal()
	}
	m.mu.Unlock()
}

// MuxStats is a point-in-time snapshot of the mux's transport counters.
type MuxStats struct {
	StreamsOpen  int    // streams with queued frames or charged credit
	CreditStalls uint64 // enqueues that found the stream's window exhausted
	BytesQueued  int64  // payload bytes enqueued but not yet flushed
}

// Stats snapshots the transport counters.
func (m *MuxWriter) Stats() MuxStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MuxStats{
		StreamsOpen:  len(m.streams),
		CreditStalls: m.creditStalls,
		BytesQueued:  m.queuedBytes,
	}
}

// Close shuts the flusher down and releases every queued buffer. Pending
// onFlush hooks do not run (the connection is going away with them).
func (m *MuxWriter) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.drainLocked()
	m.cond.Broadcast()
	m.mu.Unlock()
	<-m.done
	return nil
}

// drainLocked releases every queued frame's buffer. Caller holds mu.
func (m *MuxWriter) drainLocked() {
	for _, fr := range m.ctrl {
		PutBuf(fr.bp)
	}
	m.ctrl = nil
	for id, st := range m.streams {
		for _, fr := range st.q {
			m.queuedBytes -= int64(len(fr.f.Payload))
			PutBuf(fr.bp)
		}
		st.q = nil
		delete(m.streams, id)
	}
	m.ready = nil
}

// flushLoop is the single flusher goroutine: gather the control queue
// plus one frame per ready stream (round-robin), emit them as one
// vectored write, release the buffers, run the after-flush hooks.
func (m *MuxWriter) flushLoop() {
	defer close(m.done)
	var batch [maxCoalesce]muxFrame
	for {
		m.mu.Lock()
		for !m.closed && m.err == nil && len(m.ctrl) == 0 && len(m.ready) == 0 {
			m.cond.Wait()
		}
		if m.closed || m.err != nil {
			m.drainLocked()
			m.mu.Unlock()
			return
		}
		n := 0
		for n < maxCoalesce && len(m.ctrl) > 0 {
			batch[n] = m.ctrl[0]
			m.ctrl = m.ctrl[1:]
			n++
		}
		for n < maxCoalesce && len(m.ready) > 0 {
			id := m.ready[0]
			m.ready = m.ready[1:]
			st := m.streams[id]
			st.inReady = false
			if !st.flushable(id) {
				continue
			}
			fr := st.q[0]
			st.q = st.q[1:]
			m.queuedBytes -= int64(len(fr.f.Payload))
			if id != 0 {
				st.win -= int64(len(fr.f.Payload))
			}
			batch[n] = fr
			n++
			if st.flushable(id) {
				st.inReady = true
				m.ready = append(m.ready, id)
			} else if len(st.q) > 0 {
				// Charging this frame exhausted the window with data
				// still queued: the stream just stalled on credit.
				m.creditStalls++
			} else if st.win >= m.window {
				// Fully granted back and empty: the stream is idle;
				// evict its state so long-lived conns don't accrete
				// dead streams.
				delete(m.streams, id)
			}
		}
		m.mu.Unlock()
		if n == 0 {
			continue
		}
		err := m.writeBatch(batch[:n])
		for i := range batch[:n] {
			PutBuf(batch[i].bp)
			batch[i].bp = nil
		}
		if err != nil {
			m.mu.Lock()
			m.err = err
			m.drainLocked()
			m.mu.Unlock()
			return
		}
		for i := range batch[:n] {
			if batch[i].onFlush != nil {
				batch[i].onFlush()
			}
			batch[i] = muxFrame{}
		}
	}
}

// writeBatch emits the frames as one vectored write: per-frame headers
// from the reused scratch array interleaved with the payloads. Runs only
// on the flusher goroutine.
func (m *MuxWriter) writeBatch(batch []muxFrame) error {
	m.vecs = m.vecs[:0]
	for i := range batch {
		f := &batch[i].f
		hdr := &m.hdrs[i]
		if err := putHeader(hdr, f); err != nil {
			return err
		}
		m.vecs = append(m.vecs, hdr[:])
		if len(f.Payload) > 0 {
			m.vecs = append(m.vecs, f.Payload)
		}
	}
	_, err := m.vecs.WriteTo(m.w)
	// Drop payload references either way: a retained element would pin
	// pooled buffers past their release.
	for i := range m.vecs {
		m.vecs[i] = nil
	}
	m.vecs = m.vecs[:0]
	return err
}
