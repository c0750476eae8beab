// Package rpc provides SHHC's cluster networking: a TCP server exposing a
// hash node, and a client implementing core.Backend over the wire protocol.
//
// Connections are pipelined — a client may have many requests in flight and
// responses return as they complete, tagged with the request id. This is
// what lets two client machines saturate a 4-node cluster in the paper's
// Figure 5 experiment.
//
//shhc:ctxapi
package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"shhc/internal/core"
	"shhc/internal/metrics"
	"shhc/internal/wire"
)

// Server exposes a core.Backend (usually a *core.Node) over TCP.
//
// Every request runs under its own derived context: the server's root
// context (cancelled on Close), narrowed by the connection (cancelled
// when the peer goes away) and by the request's wire deadline, and
// individually cancellable by a CANCEL frame from the client. A request
// whose context expires answers with the context error, which the client
// maps back to context.DeadlineExceeded / context.Canceled.
type Server struct {
	backend core.Backend
	logger  *log.Logger
	window  int

	//lint:ignore ctxfirst rootCtx is the server's lifetime context (parent of every per-conn ctx), cancelled by Close; it is process-scoped by design, not a smuggled call ctx.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Transport accounting: the live mux writers (one per connection) plus
	// counters carried over from retired connections, so a stats snapshot
	// covers the server's whole lifetime.
	muxMu               sync.Mutex
	muxes               map[*wire.MuxWriter]struct{}
	retiredCreditStalls uint64

	windowUpdates uint64 // atomic: WINDOW_UPDATE grants sent
}

// ServerConfig configures a Server.
type ServerConfig struct {
	// Logger receives connection-level errors; nil discards them.
	Logger *log.Logger
	// Window is the initial per-stream send-credit window, in bytes, for
	// responses (0 = wire.DefaultWindow). No binary sets it; it stays
	// because tests run streams under a smaller window.
	Window int
}

// NewServer creates a server for the given backend.
func NewServer(backend core.Backend, cfg ServerConfig) *Server {
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	rootCtx, rootCancel := context.WithCancel(context.Background())
	window := cfg.Window
	if window <= 0 {
		// Resolve the default here, not just inside the mux: the resolved
		// value is advertised to clients in the HelloAck so they can
		// coalesce consumption grants against it.
		window = wire.DefaultWindow
	}
	return &Server{
		backend:    backend,
		logger:     logger,
		window:     window,
		rootCtx:    rootCtx,
		rootCancel: rootCancel,
		conns:      make(map[net.Conn]struct{}),
		muxes:      make(map[*wire.MuxWriter]struct{}),
	}
}

// registerMux adds a live mux writer to the transport accounting set.
func (s *Server) registerMux(m *wire.MuxWriter) {
	s.muxMu.Lock()
	s.muxes[m] = struct{}{}
	s.muxMu.Unlock()
}

// retireMux folds a closed connection's final counters into the retired
// totals so they survive the connection.
func (s *Server) retireMux(m *wire.MuxWriter) {
	st := m.Stats()
	s.muxMu.Lock()
	delete(s.muxes, m)
	s.retiredCreditStalls += st.CreditStalls
	s.muxMu.Unlock()
}

// transportStats aggregates the mux layer across live and retired
// connections: gauges (streams open, bytes in flight) from live muxes
// only, counters from both.
func (s *Server) transportStats() core.TransportStats {
	ts := core.TransportStats{WindowUpdates: atomic.LoadUint64(&s.windowUpdates)}
	s.muxMu.Lock()
	ts.CreditStalls = s.retiredCreditStalls
	for m := range s.muxes {
		st := m.Stats()
		ts.StreamsOpen += uint64(st.StreamsOpen)
		ts.CreditStalls += st.CreditStalls
		ts.BytesInFlight += uint64(st.BytesQueued)
	}
	s.muxMu.Unlock()
	return ts
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving in the
// background. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("rpc: server is closed")
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tcp, ok := conn.(*net.TCPConn); ok {
			// Lookup responses are tiny; batching at the Nagle level only
			// adds latency the paper's batch mode already amortizes.
			_ = tcp.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// maxInflightPerConn bounds per-connection request goroutines so a client
// cannot exhaust server memory by pipelining unboundedly.
const maxInflightPerConn = 256

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	clientWin, err := s.handshake(conn, br)
	if err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.logger.Printf("rpc: handshake with %s: %v", conn.RemoteAddr(), err)
		}
		return
	}

	// connCtx parents every request on this connection: it dies with the
	// connection (peer gone — nobody is left to read the answers) and
	// with the server's root context (Close). Cancelled below, ahead of
	// reqWG.Wait.
	connCtx, connCancel := context.WithCancel(s.rootCtx)

	// From here on the mux's flusher owns the socket's write side: every
	// response and every credit grant leaves through it.
	mux := wire.NewMuxWriter(conn, s.window)
	s.registerMux(mux)

	var (
		reqWG sync.WaitGroup
		sem   = make(chan struct{}, maxInflightPerConn)

		// grantPend accumulates per-stream send credit owed to the client
		// for flushed requests, granted in one WINDOW_UPDATE once it
		// reaches grantEvery (a quarter of the client's advertised send
		// window). Only the onFlush hooks touch it, and those run on the
		// mux flush goroutine alone — no lock needed.
		grantEvery = clientWin / 4
		grantPend  = make(map[uint32]uint32)

		// inflight maps request id -> cancel for CANCEL frames.
		inflightMu sync.Mutex
		inflight   = make(map[uint64]context.CancelFunc)
	)
	// Cancel the connection context BEFORE waiting for handlers: when the
	// peer goes away, nobody is left to read the answers, so in-flight
	// handlers must be unwound, not waited out (a deadline-less request on
	// a slow device would otherwise pin this goroutine, its semaphore
	// slot, and the conn indefinitely).
	defer func() {
		connCancel()
		reqWG.Wait()
		// Unblock a flusher stuck mid-write to a gone peer before waiting
		// for it; the outer defer's conn.Close is then a no-op.
		conn.Close()
		mux.Close()
		s.retireMux(mux)
	}()

	// respond queues resp on its request's stream, where the flusher
	// interleaves it with other streams' traffic, round-robin. Once its
	// bytes reach the socket the onFlush hook returns the REQUEST's size
	// as send credit — the client charged its own window to send the
	// request, and this grant is what reopens it. The mux releases
	// respBuf after the flush.
	respond := func(stream uint32, reqSize int, resp wire.Frame, respBuf *[]byte) {
		resp.Stream = stream
		var onFlush func()
		if credit := uint32(reqSize); stream != 0 && credit != 0 {
			onFlush = func() {
				pend := grantPend[stream] + credit
				if pend < grantEvery {
					grantPend[stream] = pend
					return
				}
				delete(grantPend, stream)
				gb := wire.GetBuf(4)
				*gb = wire.AppendWindowUpdate((*gb)[:0], pend)
				gf := wire.Frame{Type: wire.TypeWindowUpdate, Stream: stream, Payload: *gb}
				if err := mux.EnqueueControl(gf, gb); err == nil {
					atomic.AddUint64(&s.windowUpdates, 1)
				}
			}
		}
		if err := mux.Enqueue(resp, respBuf, onFlush); err != nil {
			s.logger.Printf("rpc: write to %s: %v", conn.RemoteAddr(), err)
		}
	}

	for {
		frame, body, err := wire.ReadFrame(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logger.Printf("rpc: read from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		switch frame.Type {
		case wire.TypeHello:
			// The handshake is the first frame and only the first.
			wire.PutBuf(body)
			s.logger.Printf("rpc: %s sent a second Hello", conn.RemoteAddr())
			return
		case wire.TypeWindowUpdate:
			// Credit grant from the client: it consumed response bytes on
			// this stream, so the stream's queued responses may flow again.
			n, derr := wire.DecodeWindowUpdate(frame.Payload)
			wire.PutBuf(body)
			if derr != nil {
				s.logger.Printf("rpc: bad window update from %s", conn.RemoteAddr())
				return
			}
			mux.Grant(frame.Stream, int(n))
			continue
		case wire.TypeCancel:
			// Also inline: a cancel queued behind the semaphore would
			// defeat its purpose. (When the semaphore is full the read
			// loop itself is blocked below, so cancels stall with it —
			// the per-request timeout still bounds those requests.)
			wire.PutBuf(body)
			inflightMu.Lock()
			cancel := inflight[frame.ID]
			inflightMu.Unlock()
			if cancel != nil {
				cancel()
			}
			continue
		}
		// Derive and REGISTER the request context here in the read loop,
		// before the handler goroutine is spawned: a CANCEL frame for
		// this id can arrive on the very next read, and registering
		// inside the goroutine would race it (the cancel would find
		// nothing and be lost).
		var (
			rctx    context.Context
			rcancel context.CancelFunc
		)
		if frame.Timeout != 0 {
			// Relative on the wire: immune to clock skew. A negative
			// budget (client sent an already-expired context) derives an
			// already-expired context here too.
			rctx, rcancel = context.WithTimeout(connCtx, frame.Timeout)
		} else {
			rctx, rcancel = context.WithCancel(connCtx)
		}
		inflightMu.Lock()
		_, dup := inflight[frame.ID]
		if !dup {
			inflight[frame.ID] = rcancel
		}
		inflightMu.Unlock()
		if dup {
			// The id names a request still in flight. Registering it would
			// overwrite that request's cancel hook, and whichever handler
			// finished first would unregister the other's: refuse the
			// frame without registering or spawning anything.
			rcancel()
			reqSize := len(frame.Payload)
			wire.PutBuf(body)
			resp, respBuf := errorFrame(frame.ID, wire.ErrorPayload{
				Code: wire.CodeBadRequest,
				Msg:  fmt.Sprintf("rpc: request id %d is already in flight on this connection", frame.ID),
			})
			respond(frame.Stream, reqSize, resp, respBuf)
			continue
		}

		sem <- struct{}{}
		reqWG.Add(1)
		go func(ctx context.Context, cancel context.CancelFunc, f wire.Frame, reqBody *[]byte) {
			defer reqWG.Done()
			defer func() { <-sem }()

			// handle is done with the request payload when it returns, so
			// the request buffer is released right after; the response
			// payload rides in its own pooled buffer.
			reqSize := len(f.Payload)
			resp, respBuf := s.handle(ctx, f)
			wire.PutBuf(reqBody)
			// Unregister before the answer can reach the peer: once it
			// has the answer, the id is the peer's to use again.
			inflightMu.Lock()
			delete(inflight, f.ID)
			inflightMu.Unlock()
			cancel()
			respond(f.Stream, reqSize, resp, respBuf)
		}(rctx, rcancel, frame, body)
	}
}

// handshake reads a connection's first frame, which must be a Hello
// carrying wire.ProtocolVersion, and acknowledges it with the server's own
// version and response window; it returns the send window the client
// advertised. Anything else — another version, another frame type, bytes
// that do not frame — is answered with one VERSION_MISMATCH error, written
// straight to the socket, and the caller closes the connection: nothing is
// negotiated.
func (s *Server) handshake(conn net.Conn, br *bufio.Reader) (uint32, error) {
	fw := wire.NewFrameWriter(conn)
	refuse := func(id uint64, cause error) (uint32, error) {
		resp, buf := errorFrame(id, wire.ErrorPayload{
			Code: wire.CodeVersionMismatch,
			Msg:  fmt.Sprintf("rpc: this node speaks protocol %d only: %v", wire.ProtocolVersion, cause),
		})
		// Best effort: the connection closes whether or not the peer
		// gets to read why.
		_ = fw.WriteFrame(resp)
		wire.PutBuf(buf)
		return 0, cause
	}
	frame, body, err := wire.ReadFrame(br)
	if err != nil {
		if errors.Is(err, wire.ErrShortPayload) || errors.Is(err, wire.ErrFrameTooLarge) {
			return refuse(0, err)
		}
		return 0, err
	}
	version, window, err := wire.DecodeHello(frame.Payload)
	wire.PutBuf(body)
	switch {
	case frame.Type != wire.TypeHello:
		return refuse(frame.ID, fmt.Errorf("first frame is %v, want hello", frame.Type))
	case err != nil:
		return refuse(frame.ID, err)
	case version != wire.ProtocolVersion:
		return refuse(frame.ID, fmt.Errorf("peer offers protocol %d", version))
	}
	var ack [8]byte
	err = fw.WriteFrame(wire.Frame{
		Type:    wire.TypeHelloAck,
		ID:      frame.ID,
		Payload: wire.AppendHello(ack[:0], wire.ProtocolVersion, uint32(s.window)),
	})
	return window, err
}

// errorFrame builds the TypeError response to request id in a pooled
// buffer, which the caller releases after the frame is written.
//
//shhc:returns-buf
func errorFrame(id uint64, e wire.ErrorPayload) (wire.Frame, *[]byte) {
	buf := wire.GetBuf(0)
	*buf = wire.AppendError((*buf)[:0], e)
	return wire.Frame{Type: wire.TypeError, ID: id, Payload: *buf}, buf
}

// handle executes one request frame under ctx and builds the response
// frame.
//
// The returned *[]byte is the pooled buffer the response payload lives in
// (nil when the payload is empty or not pooled); the caller releases it
// after the frame is written. f.Payload is not referenced after handle
// returns.
//
//shhc:returns-buf
func (s *Server) handle(ctx context.Context, f wire.Frame) (wire.Frame, *[]byte) {
	// fail builds an error response whose code lets the client recover a
	// context error without string matching.
	fail := func(err error) (wire.Frame, *[]byte) {
		code := wire.CodeInternal
		switch {
		case errors.Is(err, context.Canceled):
			code = wire.CodeCancelled
		case errors.Is(err, context.DeadlineExceeded):
			code = wire.CodeDeadline
		}
		return errorFrame(f.ID, wire.ErrorPayload{Code: code, Msg: err.Error()})
	}
	badReq := func(err error) (wire.Frame, *[]byte) {
		return errorFrame(f.ID, wire.ErrorPayload{Code: wire.CodeBadRequest, Msg: err.Error()})
	}
	batchResult := func(rs []core.LookupResult) (wire.Frame, *[]byte) {
		buf := wire.GetBuf(4 + len(rs)*10)
		b := (*buf)[:0]
		b = binary.BigEndian.AppendUint32(b, uint32(len(rs)))
		for _, r := range rs {
			b = wire.AppendResult(b, toWireResult(r))
		}
		*buf = b
		return wire.Frame{Type: wire.TypeBatchResult, ID: f.ID, Payload: b}, buf
	}
	// A request that arrives already expired (or whose connection is
	// tearing down) is not worth starting.
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	switch f.Type {
	case wire.TypePing:
		return wire.Frame{Type: wire.TypePong, ID: f.ID}, nil

	case wire.TypeLookup, wire.TypeInsert:
		// core.Backend's single-key verbs, one pair at a time, read
		// straight off the payload: no pair buffer, no result slice.
		count, err := wire.BatchCount(f.Payload)
		if err != nil {
			return badReq(err)
		}
		buf := wire.GetBuf(4 + count*10)
		b := binary.BigEndian.AppendUint32((*buf)[:0], uint32(count))
		for i := 0; i < count; i++ {
			p := wire.PairAt(f.Payload, i)
			var r core.LookupResult
			if f.Type == wire.TypeLookup {
				r, err = s.backend.Lookup(ctx, p.FP)
			} else {
				err = s.backend.Insert(ctx, p.FP, core.Value(p.Val))
			}
			if err != nil {
				wire.PutBuf(buf)
				return fail(err)
			}
			b = wire.AppendResult(b, toWireResult(r))
		}
		*buf = b
		return wire.Frame{Type: wire.TypeBatchResult, ID: f.ID, Payload: b}, buf

	case wire.TypeBatch, wire.TypeRepair:
		pairs, err := decodeCorePairs(f.Payload)
		if err != nil {
			return badReq(err)
		}
		// TypeRepair is the replication backfill verb: the same pair batch
		// with the same keep-existing semantics, routed through the
		// backend's repair path so the node accounts it as replication
		// traffic. A backend without that path applies it as a plain
		// batch — the presence semantics are identical.
		var rs []core.LookupResult
		if ra, ok := s.backend.(core.RepairApplier); ok && f.Type == wire.TypeRepair {
			rs, err = ra.ApplyRepair(ctx, *pairs)
		} else {
			rs, err = s.backend.BatchLookupOrInsert(ctx, *pairs)
		}
		putPairBuf(pairs)
		if err != nil {
			return fail(err)
		}
		return batchResult(rs)

	case wire.TypeStats:
		st, err := s.backend.Stats(ctx)
		if err != nil {
			return fail(err)
		}
		// The transport layer belongs to the server, not the backend:
		// overlay its live aggregate here so remote stats readers see it.
		st.Transport = s.transportStats()
		buf := wire.GetBuf(0)
		*buf = wire.AppendStats((*buf)[:0], string(st.ID), metrics.Fields(&st))
		return wire.Frame{Type: wire.TypeStatsResult, ID: f.ID, Payload: *buf}, buf
	}
	return badReq(fmt.Errorf("rpc: unsupported request type %v", f.Type))
}

// pairBufPool recycles the decoded pairs of batch frames. A buffer is the
// serving goroutine's from decodeCorePairs until the backend call returns —
// core.Backend implementations do not retain the pairs they are handed — and
// goes back with putPairBuf.
var pairBufPool = sync.Pool{New: func() any { return new([]core.Pair) }}

// maxPooledPairs bounds what putPairBuf keeps (1 MiB of pairs).
const maxPooledPairs = 1 << 15

//shhc:takes-buf pp
func putPairBuf(pp *[]core.Pair) {
	if cap(*pp) > maxPooledPairs {
		*pp = nil
	}
	pairBufPool.Put(pp)
}

// decodeCorePairs decodes a wire pair batch straight into core.Pair values
// in a pooled buffer: one copy per frame and, at steady state, no
// allocation. The buffer is non-nil exactly when the error is nil.
//
//shhc:returns-buf
func decodeCorePairs(payload []byte) (*[]core.Pair, error) {
	count, err := wire.BatchCount(payload)
	if err != nil {
		return nil, err
	}
	pp := pairBufPool.Get().(*[]core.Pair)
	if cap(*pp) < count {
		*pp = make([]core.Pair, count)
	}
	pairs := (*pp)[:count]
	for i := range pairs {
		p := wire.PairAt(payload, i)
		pairs[i] = core.Pair{FP: p.FP, Val: core.Value(p.Val)}
	}
	*pp = pairs
	return pp, nil
}

// decodeCoreResults decodes a batch-result payload straight into
// core.LookupResult values and checks it answers want pairs; verb names the
// request in the mismatch error.
func decodeCoreResults(payload []byte, want int, verb string) ([]core.LookupResult, error) {
	count, err := wire.BatchResultCount(payload)
	if err != nil {
		return nil, err
	}
	if count != want {
		return nil, fmt.Errorf("rpc: %s answered %d results for %d pairs", verb, count, want)
	}
	out := make([]core.LookupResult, count)
	for i := range out {
		out[i] = fromWireResult(wire.ResultAt(payload, i))
	}
	return out, nil
}

func toWireResult(r core.LookupResult) wire.ResultPayload {
	return wire.ResultPayload{Exists: r.Exists, Source: uint8(r.Source), Val: uint64(r.Value)}
}

func fromWireResult(r wire.ResultPayload) core.LookupResult {
	return core.LookupResult{Exists: r.Exists, Source: core.Source(r.Source), Value: core.Value(r.Val)}
}

// Close stops accepting, cancels the root context (so in-flight request
// handlers unwind promptly), closes all connections, and waits for
// handlers. The wrapped backend is NOT closed; its owner closes it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("rpc: server already closed")
	}
	s.closed = true
	s.rootCancel()
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}
