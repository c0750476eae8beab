package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/metrics"
	"shhc/internal/ring"
	"shhc/internal/wire"
)

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("rpc: client is closed")

// ServerError is a failure reported by the remote node (as opposed to a
// transport failure). Code is the server's error code, and the only thing
// that maps to behaviour: CodeCancelled and CodeDeadline unwrap to the
// matching context error, so errors.Is(err, context.DeadlineExceeded)
// holds across the wire, and Dial fails with CodeVersionMismatch against a
// peer on another protocol. Msg is for people.
type ServerError struct {
	Msg  string
	Code wire.Code
}

func (e *ServerError) Error() string { return "rpc: server: " + e.Msg }

// Unwrap exposes the context error the server's failure was, if it was
// one.
func (e *ServerError) Unwrap() error {
	switch e.Code {
	case wire.CodeCancelled:
		return context.Canceled
	case wire.CodeDeadline:
		return context.DeadlineExceeded
	}
	return nil
}

// decodeServerError turns a TypeError payload into a *ServerError.
func decodeServerError(payload []byte) *ServerError {
	ep, err := wire.DecodeErrorPayload(payload)
	if err != nil {
		return &ServerError{Msg: "undecodable server error"}
	}
	return &ServerError{Msg: ep.Msg, Code: ep.Code}
}

// ClientConfig configures a Client.
type ClientConfig struct {
	// Conns is the connection pool size; requests round-robin across it.
	// Default 2 (one per direction of the paper's two client machines).
	Conns int
	// Timeout bounds each request round-trip when the caller's context
	// carries no earlier deadline. Default 30s.
	Timeout time.Duration
	// StreamsPerConn is how many logical streams the client's default
	// (non-OpenStream) traffic round-robins across on each connection.
	// Default 4.
	StreamsPerConn int
	// Window is the initial per-stream send-credit window in bytes
	// (0 = wire.DefaultWindow). Must match nothing on the server — each
	// side sizes its own send window and announces it in the handshake.
	Window int
}

const (
	// dialTimeout bounds connection establishment, handshake included.
	dialTimeout = 5 * time.Second
	// A call that finds its connection slot dead redials it up to
	// redialAttempts times, redialBackoff apart and doubling, so a
	// briefly restarted node costs in-flight-free callers a short wait
	// instead of an error.
	redialAttempts = 3
	redialBackoff  = 50 * time.Millisecond
)

func (c *ClientConfig) fill() {
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.StreamsPerConn <= 0 {
		c.StreamsPerConn = 4
	}
	if c.Window <= 0 {
		c.Window = wire.DefaultWindow
	}
}

// Client is a connection-pooled, pipelining client for one hash node.
// It implements core.Backend so a core.Cluster can route to remote nodes
// exactly as it routes to in-process ones.
//
// Every operation takes a context: its deadline travels to the server in
// the request frame, and cancelling it both returns promptly on the client
// and sends a CANCEL frame so the server stops working on the abandoned
// request.
type Client struct {
	id   ring.NodeID
	addr string
	cfg  ClientConfig

	mu     sync.Mutex
	conns  []*clientConn
	next   uint64
	closed bool

	// nextStreamID hands out logical stream ids: 1..StreamsPerConn are
	// the default round-robin pool, the repair stream and OpenStream
	// handles take ids above that. Stream 0 is the control stream.
	nextStreamID uint32
	repairStream uint32
	streamNext   uint64 // atomic; round-robins default traffic over the pool

	creditStalls uint64
}

var _ core.Backend = (*Client)(nil)

// Dial connects to a hash node server and completes the handshake on the
// first pooled connection. Against a peer that speaks another protocol
// version it fails with a *ServerError whose Code is CodeVersionMismatch.
func Dial(id ring.NodeID, addr string, cfg ClientConfig) (*Client, error) {
	cfg.fill()
	c := &Client{
		id:    id,
		addr:  addr,
		cfg:   cfg,
		conns: make([]*clientConn, cfg.Conns),
		// Default traffic rotates streams 1..StreamsPerConn; the repair
		// stream is the first id after the pool (already allocated here,
		// hence +2), so replication backfill never shares a window with
		// foreground lookups.
		nextStreamID: uint32(cfg.StreamsPerConn) + 2,
		repairStream: uint32(cfg.StreamsPerConn) + 1,
	}
	// Establish the first connection eagerly so configuration errors
	// surface at startup; the rest dial lazily.
	cc, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.conns[0] = cc
	return c, nil
}

// nextStream picks a default-pool stream for one call. Round-robin over
// the pool spreads independent callers across windows so one slow batch
// consumer cannot starve every caller sharing the client.
func (c *Client) nextStream() uint32 {
	n := atomic.AddUint64(&c.streamNext, 1)
	return 1 + uint32(n%uint64(c.cfg.StreamsPerConn))
}

// RedirectsFollowed is always 0: the protocol has no redirect. It stays
// only because the end-to-end benchmark still reads it, and leaves with
// that instrument's next re-record.
func (c *Client) RedirectsFollowed() uint64 { return 0 }

// CreditStalls reports how many times a caller had to wait for stream
// send credit before its request could be written.
func (c *Client) CreditStalls() uint64 {
	return atomic.LoadUint64(&c.creditStalls)
}

// ID returns the remote node's ring identity.
func (c *Client) ID() ring.NodeID { return c.id }

// Addr returns the remote address.
func (c *Client) Addr() string { return c.addr }

func (c *Client) dialConn() (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", c.addr, err)
	}
	if tcp, ok := conn.(*net.TCPConn); ok {
		_ = tcp.SetNoDelay(true)
	}
	cc := &clientConn{
		conn:    conn,
		fw:      wire.NewFrameWriter(conn),
		pending: make(map[uint64]*pendingCall),
		windows: make(map[uint32]*sendWindow),
		window:  int64(c.cfg.Window),
		deadCh:  make(chan struct{}),
		stalls:  &c.creditStalls,
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	srvWindow, err := cc.handshake(br, dialTimeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	// The server advertised its per-stream response window in the
	// HelloAck. Knowing it lets us coalesce consumption grants: withhold
	// WINDOW_UPDATE frames until a quarter-window is pending, cutting
	// per-op frame count without ever letting the server's window run dry.
	cc.grantEvery = int64(srvWindow / 4)
	go cc.readLoop(br)
	return cc, nil
}

// handshake performs the client side of the opening exchange on a fresh
// connection, before the read loop starts: send a Hello carrying
// wire.ProtocolVersion and our per-stream send window (so the server can
// coalesce the credit grants it returns for flushed requests), read one
// frame back. It returns the server's advertised per-stream response
// window. A server on another version answers with a VERSION_MISMATCH
// error, or acks a version that is not ours; both surface as a
// *ServerError with that code — there is no older protocol to retry as.
func (cc *clientConn) handshake(br *bufio.Reader, timeout time.Duration) (uint32, error) {
	if err := cc.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, fmt.Errorf("rpc: handshake: %w", err)
	}
	defer cc.conn.SetDeadline(time.Time{})
	var hello [8]byte
	err := cc.fw.WriteFrame(wire.Frame{Type: wire.TypeHello, Payload: wire.AppendHello(hello[:0], wire.ProtocolVersion, uint32(cc.window))})
	if err != nil {
		return 0, fmt.Errorf("rpc: handshake send: %w", err)
	}
	resp, body, err := wire.ReadFrame(br)
	if err != nil {
		return 0, fmt.Errorf("rpc: handshake read: %w", err)
	}
	defer wire.PutBuf(body)
	switch resp.Type {
	case wire.TypeHelloAck:
		v, window, err := wire.DecodeHello(resp.Payload)
		if err != nil {
			return 0, fmt.Errorf("rpc: handshake: %w", err)
		}
		if v != wire.ProtocolVersion {
			return 0, &ServerError{
				Code: wire.CodeVersionMismatch,
				Msg:  fmt.Sprintf("server acked protocol %d, this client speaks %d", v, wire.ProtocolVersion),
			}
		}
		return window, nil
	case wire.TypeError:
		return 0, decodeServerError(resp.Payload)
	default:
		return 0, fmt.Errorf("rpc: handshake: unexpected %v response", resp.Type)
	}
}

// pick returns a live pooled connection, redialing dead slots lazily.
// The dial (TCP connect + handshake, up to dialTimeout) runs
// OUTSIDE c.mu: one dead slot must not stall callers that round-robin
// onto healthy connections.
func (c *Client) pick(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	idx := int(c.next % uint64(len(c.conns)))
	c.next++
	cc := c.conns[idx]
	c.mu.Unlock()
	if cc != nil && !cc.isDead() {
		return cc, nil
	}

	fresh, err := c.redial(ctx)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		fresh.shutdown(ErrClientClosed)
		return nil, ErrClientClosed
	}
	if cur := c.conns[idx]; cur != nil && cur != cc && !cur.isDead() {
		// Another caller already repaired this slot while we dialed; use
		// the established connection and drop ours.
		c.mu.Unlock()
		fresh.shutdown(errors.New("rpc: redundant redial"))
		return cur, nil
	} else if cur != nil {
		cur.shutdown(errors.New("rpc: connection replaced"))
	}
	c.conns[idx] = fresh
	c.mu.Unlock()
	return fresh, nil
}

// redial dials with bounded retry: redialAttempts attempts separated by
// redialBackoff, doubling, cut short by ctx. The last error wins.
func (c *Client) redial(ctx context.Context) (*clientConn, error) {
	backoff := redialBackoff
	var err error
	for attempt := 0; attempt < redialAttempts; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			}
			backoff *= 2
		}
		var cc *clientConn
		if cc, err = c.dialConn(); err == nil {
			return cc, nil
		}
	}
	return nil, err
}

// timeoutFor merges the context deadline with the configured per-request
// timeout, returning the relative time budget to put on the wire: the
// smaller of the context's remaining time and cfg.Timeout. Relative, not
// absolute, so clock skew between client and server cannot distort it.
// An already-expired context yields a negative budget, which the server
// treats as expired — callers short-circuit on ctx.Err() first anyway.
func (c *Client) timeoutFor(ctx context.Context) time.Duration {
	t := c.cfg.Timeout
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl); remaining < t {
			t = remaining
		}
	}
	return t
}

// send writes one request on the given logical stream and returns its
// pending call. It takes ownership of reqBuf (the pooled buffer holding the
// request payload; nil for empty payloads) and releases it once the frame
// is on the wire.
//
//shhc:takes-buf reqBuf
func (c *Client) send(ctx context.Context, stream uint32, reqType wire.Type, reqBuf *[]byte) (*pendingCall, error) {
	if err := ctx.Err(); err != nil {
		wire.PutBuf(reqBuf)
		return nil, err
	}
	cc, err := c.pick(ctx)
	if err != nil {
		wire.PutBuf(reqBuf)
		return nil, err
	}
	var payload []byte
	if reqBuf != nil {
		payload = *reqBuf
	}
	pc, err := cc.start(ctx, stream, reqType, payload, c.timeoutFor(ctx))
	wire.PutBuf(reqBuf)
	return pc, err
}

// call performs one round-trip under ctx: send, then answer. It takes
// ownership of reqBuf as send does. On success the returned pooled buffer
// holds the response payload; the caller releases it with wire.PutBuf
// after decoding.
//
//shhc:takes-buf reqBuf
//shhc:returns-buf
func (c *Client) call(ctx context.Context, stream uint32, reqType wire.Type, reqBuf *[]byte) (wire.Frame, *[]byte, error) {
	pc, err := c.send(ctx, stream, reqType, reqBuf)
	if err != nil {
		return wire.Frame{}, nil, err
	}
	return pc.answer(ctx, c.cfg.Timeout)
}

// Ping checks liveness of the remote node.
func (c *Client) Ping(ctx context.Context) error {
	resp, body, err := c.call(ctx, 0, wire.TypePing, nil)
	if err != nil {
		return err
	}
	wire.PutBuf(body)
	if resp.Type != wire.TypePong {
		return fmt.Errorf("rpc: ping got %v", resp.Type)
	}
	return nil
}

// Lookup asks the remote node whether fp exists, without inserting.
func (c *Client) Lookup(ctx context.Context, fp fingerprint.Fingerprint) (core.LookupResult, error) {
	return c.one(ctx, c.nextStream(), wire.TypeLookup, core.Pair{FP: fp})
}

// LookupOrInsert runs the Figure 4 flow on the remote node.
func (c *Client) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) (core.LookupResult, error) {
	return c.one(ctx, c.nextStream(), wire.TypeBatch, core.Pair{FP: fp, Val: val})
}

// Insert unconditionally records fp -> val on the remote node.
func (c *Client) Insert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) error {
	_, err := c.one(ctx, c.nextStream(), wire.TypeInsert, core.Pair{FP: fp, Val: val})
	return err
}

// one sends a batch of one pair with the given verb on stream — the wire
// has no single-key frame — and decodes its one answer in place.
func (c *Client) one(ctx context.Context, stream uint32, verb wire.Type, p core.Pair) (core.LookupResult, error) {
	resp, body, err := c.call(ctx, stream, verb, appendCorePairBatch([]core.Pair{p}))
	if err != nil {
		return core.LookupResult{}, err
	}
	defer wire.PutBuf(body)
	if n, err := wire.BatchResultCount(resp.Payload); err != nil {
		return core.LookupResult{}, err
	} else if n != 1 {
		return core.LookupResult{}, fmt.Errorf("rpc: %v answered %d results for 1 pair", verb, n)
	}
	return fromWireResult(wire.ResultAt(resp.Payload, 0)), nil
}

// BatchLookupOrInsert sends one batch frame and decodes the ordered
// results — the unit of the paper's batch-mode experiments.
func (c *Client) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	return c.GoBatchLookupOrInsert(ctx, pairs).Results()
}

// ApplyRepair sends a replication repair batch to the remote node with the
// REPAIR verb, so the server can account the traffic separately from
// client load.
func (c *Client) ApplyRepair(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	// Repair rides its own dedicated stream: backfill bursts share wire
	// bytes with foreground lookups but never a credit window, so a big
	// repair batch cannot head-of-line-block client traffic (or vice
	// versa).
	resp, body, err := c.call(ctx, c.repairStream, wire.TypeRepair, appendCorePairBatch(pairs))
	if err != nil {
		return nil, err
	}
	out, err := decodeCoreResults(resp.Payload, len(pairs), "repair")
	wire.PutBuf(body)
	return out, err
}

var _ core.RepairApplier = (*Client)(nil)

// BatchCall is an in-flight batch request: a future for the pipelined
// protocol. Results blocks until the response frame arrives (or the
// request's context is cancelled or it times out); Done exposes
// completion for select loops.
type BatchCall struct {
	n int
	//lint:ignore ctxfirst a BatchCall is itself call-scoped (one request's future); the field carries the caller's ctx to the deferred Results wait, not past the call.
	ctx     context.Context
	pc      *pendingCall
	timeout time.Duration
	err     error // pre-flight failure (dial, encode, send)

	once    sync.Once
	results []core.LookupResult
	resErr  error
}

// GoBatchLookupOrInsert writes one batch frame and returns immediately
// with a future. Because connections are pipelined (requests carry ids and
// responses return as they complete), a caller can keep many batches in
// flight on one connection and a batch stalled on a remote node's SSD
// phase does not block the batches behind it — the wire analogue of the
// node's asynchronous lookup pipeline. The context governs the whole
// call: its deadline rides in the request frame and cancelling it
// abandons the future (a CANCEL frame tells the server to stop).
func (c *Client) GoBatchLookupOrInsert(ctx context.Context, pairs []core.Pair) *BatchCall {
	return c.goBatchOn(ctx, c.nextStream(), pairs)
}

func (c *Client) goBatchOn(ctx context.Context, stream uint32, pairs []core.Pair) *BatchCall {
	call := &BatchCall{n: len(pairs), ctx: ctx, timeout: c.cfg.Timeout}
	call.pc, call.err = c.send(ctx, stream, wire.TypeBatch, appendCorePairBatch(pairs))
	return call
}

// appendCorePairBatch encodes a batch payload straight from core pairs into
// a pooled buffer, which send releases once the frame is written.
//
//shhc:returns-buf
func appendCorePairBatch(pairs []core.Pair) *[]byte {
	buf := wire.GetBuf(4 + len(pairs)*(fingerprint.Size+8))
	b := binary.BigEndian.AppendUint32((*buf)[:0], uint32(len(pairs)))
	for i := range pairs {
		b = wire.AppendPair(b, wire.PairPayload{FP: pairs[i].FP, Val: uint64(pairs[i].Val)})
	}
	*buf = b
	return buf
}

// Done returns a channel closed when the response (or a connection
// failure) is available; Results will not block after it is closed. A
// call that failed before sending returns an already-closed channel.
// Cancellation of the call's context is not reflected here — select on
// ctx.Done() alongside Done when waiting for either.
func (b *BatchCall) Done() <-chan struct{} {
	if b.pc == nil {
		return closedChan
	}
	return b.pc.settled
}

// closedChan is what Done returns for every call that failed before it was
// sent.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Results blocks for the response and decodes the ordered results. It is
// safe to call more than once; every call returns the same outcome.
func (b *BatchCall) Results() ([]core.LookupResult, error) {
	b.once.Do(b.wait)
	return b.results, b.resErr
}

func (b *BatchCall) wait() {
	if b.err != nil {
		b.resErr = b.err
		return
	}
	// Results() IS the consumption point of the pipelined protocol:
	// only now do the response bytes return to the stream's window. A
	// future nobody collects keeps its own stream credit-blocked — and
	// no one else's.
	resp, body, err := b.pc.answer(b.ctx, b.timeout)
	if err != nil {
		b.resErr = err
		return
	}
	b.results, b.resErr = decodeCoreResults(resp.Payload, b.n, "batch")
	wire.PutBuf(body)
}

// Stats fetches the remote node's counters.
func (c *Client) Stats(ctx context.Context) (core.NodeStats, error) {
	resp, body, err := c.call(ctx, 0, wire.TypeStats, nil)
	if err != nil {
		return core.NodeStats{}, err
	}
	id, fs, err := wire.DecodeStats(resp.Payload)
	wire.PutBuf(body)
	if err != nil {
		return core.NodeStats{}, err
	}
	st := core.NodeStats{ID: ring.NodeID(id)}
	metrics.SetFields(&st, fs)
	return st, nil
}

// Close tears down all pooled connections.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.closed = true
	for _, cc := range c.conns {
		if cc != nil {
			cc.shutdown(ErrClientClosed)
		}
	}
	c.mu.Unlock()
	return nil
}

// OpenStream allocates a dedicated logical stream on the client and
// returns a handle whose operations all ride that stream: its own credit
// window, its own place in the server's round-robin scheduler. Cheap —
// no wire traffic, just an id — so each subsystem (webfront, batcher,
// replication) can own one.
func (c *Client) OpenStream() *ClientStream {
	id := atomic.AddUint32(&c.nextStreamID, 1) - 1
	return &ClientStream{c: c, id: id}
}

// ClientStream is a stream-pinned view of a Client. It implements
// core.Backend, so anything that routes through a Backend can be handed
// its own stream transparently.
type ClientStream struct {
	c  *Client
	id uint32
}

var _ core.Backend = (*ClientStream)(nil)

// ID returns the remote node's ring identity.
func (s *ClientStream) ID() ring.NodeID { return s.c.ID() }

// Stream returns the handle's logical stream id.
func (s *ClientStream) Stream() uint32 { return s.id }

// Ping checks liveness (control stream; never credit-charged).
func (s *ClientStream) Ping(ctx context.Context) error { return s.c.Ping(ctx) }

// Lookup runs a lookup on this handle's stream.
func (s *ClientStream) Lookup(ctx context.Context, fp fingerprint.Fingerprint) (core.LookupResult, error) {
	return s.c.one(ctx, s.id, wire.TypeLookup, core.Pair{FP: fp})
}

// LookupOrInsert runs the Figure 4 flow on this handle's stream.
func (s *ClientStream) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) (core.LookupResult, error) {
	return s.c.one(ctx, s.id, wire.TypeBatch, core.Pair{FP: fp, Val: val})
}

// Insert unconditionally records fp -> val on this handle's stream.
func (s *ClientStream) Insert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) error {
	_, err := s.c.one(ctx, s.id, wire.TypeInsert, core.Pair{FP: fp, Val: val})
	return err
}

// BatchLookupOrInsert sends one batch frame on this handle's stream.
func (s *ClientStream) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	return s.GoBatchLookupOrInsert(ctx, pairs).Results()
}

// GoBatchLookupOrInsert pipelines one batch on this handle's stream and
// returns a future. Uncollected futures exhaust only this stream's
// credit; every other stream keeps flowing.
func (s *ClientStream) GoBatchLookupOrInsert(ctx context.Context, pairs []core.Pair) *BatchCall {
	return s.c.goBatchOn(ctx, s.id, pairs)
}

// Stats fetches the remote node's counters (control stream).
func (s *ClientStream) Stats(ctx context.Context) (core.NodeStats, error) {
	return s.c.Stats(ctx)
}

// Close releases nothing: the stream is just an id, and the underlying
// Client (whose lifetime the owner manages) stays open.
func (s *ClientStream) Close() error { return nil }

// clientConn is one pipelined connection with an id-keyed pending table
// and one send-credit window per logical stream: a caller writing on a
// stream whose window is exhausted blocks (in start) until the server
// grants credit back — that per-caller blocking IS the isolation, because
// callers on other streams never touch the exhausted window.
type clientConn struct {
	conn net.Conn

	writeMu sync.Mutex
	fw      *wire.FrameWriter

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	nextID  uint64
	dead    bool
	deadErr error

	// window is the initial per-stream send credit; windows holds each
	// stream's live balance. deadCh wakes credit-waiters on shutdown.
	window  int64
	winMu   sync.Mutex
	windows map[uint32]*sendWindow
	deadCh  chan struct{}
	stalls  *uint64 // the owning Client's credit-stall counter (atomic)

	// grantEvery coalesces consumption grants: withhold WINDOW_UPDATE
	// frames for a stream until this many consumed bytes are pending
	// (a quarter of the server's advertised response window). Withholding
	// less than the full window can never wedge the stream: the server
	// always retains at least three quarters of its credit.
	grantEvery int64

	closeOnce sync.Once
}

// sendWindow is one stream's send-credit balance. wake is closed and
// replaced on every grant, broadcasting to all waiters. pendGrant rides
// along as the stream's withheld consumption grants for the opposite
// (response) direction — bytes consumed but not yet granted back to the
// server, flushed once they reach clientConn.grantEvery.
type sendWindow struct {
	mu        sync.Mutex
	win       int64
	wake      chan struct{}
	pendGrant int64
}

// windowFor returns (creating if needed) the stream's send window.
func (cc *clientConn) windowFor(stream uint32) *sendWindow {
	cc.winMu.Lock()
	w := cc.windows[stream]
	if w == nil {
		w = &sendWindow{win: cc.window, wake: make(chan struct{})}
		cc.windows[stream] = w
	}
	cc.winMu.Unlock()
	return w
}

// acquire charges n bytes against the stream's send window, blocking
// while the balance is empty. The window may go negative (one oversized
// frame), which blocks the stream until grants restore it.
func (cc *clientConn) acquire(ctx context.Context, stream uint32, n int) error {
	if stream == 0 || n == 0 {
		return nil
	}
	w := cc.windowFor(stream)
	w.mu.Lock()
	stalled := false
	for w.win <= 0 {
		if !stalled {
			stalled = true
			atomic.AddUint64(cc.stalls, 1)
		}
		ch := w.wake
		w.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-cc.deadCh:
			cc.mu.Lock()
			err := cc.deadErr
			cc.mu.Unlock()
			if err == nil {
				err = errors.New("rpc: connection closed")
			}
			return err
		}
		w.mu.Lock()
	}
	w.win -= int64(n)
	w.mu.Unlock()
	return nil
}

// grantSend credits the stream's send window (a WINDOW_UPDATE arrived:
// the server flushed responses and returned the request bytes).
func (cc *clientConn) grantSend(stream uint32, n int) {
	w := cc.windowFor(stream)
	w.mu.Lock()
	w.win += int64(n)
	if w.win > cc.window {
		w.win = cc.window
	}
	close(w.wake)
	w.wake = make(chan struct{})
	w.mu.Unlock()
}

// grantConsumed tells the server we consumed n bytes of response payload
// on the stream, reopening its response window. Sent on
// consumption — not delivery — so an unconsumed future keeps its stream's
// server-side window shut, which is exactly the back-pressure the mux
// design wants.
func (cc *clientConn) grantConsumed(stream uint32, n int) {
	if stream == 0 || n == 0 || cc.isDead() {
		return
	}
	// Coalesce: accumulate until a quarter of the server's window is
	// pending, then grant the whole batch in one frame.
	w := cc.windowFor(stream)
	w.mu.Lock()
	w.pendGrant += int64(n)
	if w.pendGrant < cc.grantEvery {
		w.mu.Unlock()
		return
	}
	credit := w.pendGrant
	w.pendGrant = 0
	w.mu.Unlock()
	var payload [4]byte
	cc.writeMu.Lock()
	err := cc.fw.WriteFrame(wire.Frame{
		Type:    wire.TypeWindowUpdate,
		Stream:  stream,
		Payload: wire.AppendWindowUpdate(payload[:0], uint32(credit)),
	})
	cc.writeMu.Unlock()
	if err != nil {
		cc.shutdown(fmt.Errorf("rpc: send window update: %w", err))
	}
}

// response is a received frame plus the pooled buffer its payload aliases.
// Whoever consumes the response releases body with wire.PutBuf after the
// payload's last use.
type response struct {
	f    wire.Frame
	body *[]byte
}

// pendingCall is one request awaiting its response frame. Ownership
// discipline: whichever party removes the call from the connection's
// pending table — the read loop (response arrived), shutdown (connection
// died), or the caller's timeout/cancellation — settles it, exactly once.
type pendingCall struct {
	cc      *clientConn
	reqType wire.Type
	id      uint64
	ch      chan response // buffered 1; receives the response
	settled chan struct{} // closed once ch holds the response or the call failed
}

func (cc *clientConn) isDead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.dead
}

// shutdown marks the connection dead and fails every pending call.
func (cc *clientConn) shutdown(err error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	cc.deadErr = err
	waiters := cc.pending
	cc.pending = map[uint64]*pendingCall{}
	cc.mu.Unlock()

	close(cc.deadCh) // wake credit-waiters; their windows die with the conn
	cc.closeOnce.Do(func() { cc.conn.Close() })
	for _, pc := range waiters {
		close(pc.ch)
		close(pc.settled)
	}
}

func (cc *clientConn) readLoop(br *bufio.Reader) {
	for {
		frame, body, err := wire.ReadFrame(br)
		if err != nil {
			cc.shutdown(fmt.Errorf("rpc: connection lost: %w", err))
			return
		}
		if frame.Type == wire.TypeWindowUpdate {
			// Credit grant from the server: the responses we asked for
			// flushed, so our request window on that stream reopens.
			n, derr := wire.DecodeWindowUpdate(frame.Payload)
			wire.PutBuf(body)
			if derr != nil {
				cc.shutdown(fmt.Errorf("rpc: bad window update: %w", derr))
				return
			}
			cc.grantSend(frame.Stream, int(n))
			continue
		}
		cc.mu.Lock()
		pc, ok := cc.pending[frame.ID]
		if ok {
			delete(cc.pending, frame.ID)
		}
		cc.mu.Unlock()
		if ok {
			//lint:ignore poolescape intentional ownership hand-off: pc.ch is buffered 1 and the waiter (or discardSettled on an abandon race) releases body exactly once.
			pc.ch <- response{f: frame, body: body}
			close(pc.settled)
		} else {
			// Nobody is waiting (abandoned by timeout or cancel) — the
			// payload dies here, and its bytes still count as consumed so
			// the stream's response window is not leaked shut.
			n := len(frame.Payload)
			wire.PutBuf(body)
			cc.grantConsumed(frame.Stream, n)
		}
	}
}

// start registers a call and writes its request frame, returning without
// waiting for the response — this is what pipelines multiple requests onto
// one connection. timeout (relative, 0 = none) rides in the frame. The
// payload is first charged against the stream's send window; a caller on
// an exhausted stream blocks here (under ctx) until the server grants
// credit, while callers on other streams sail past.
func (cc *clientConn) start(ctx context.Context, stream uint32, reqType wire.Type, payload []byte, timeout time.Duration) (*pendingCall, error) {
	if err := cc.acquire(ctx, stream, len(payload)); err != nil {
		return nil, err
	}
	cc.mu.Lock()
	if cc.dead {
		err := cc.deadErr
		cc.mu.Unlock()
		return nil, err
	}
	id := atomic.AddUint64(&cc.nextID, 1)
	pc := &pendingCall{
		cc:      cc,
		reqType: reqType,
		id:      id,
		ch:      make(chan response, 1),
		settled: make(chan struct{}),
	}
	cc.pending[id] = pc
	cc.mu.Unlock()

	cc.writeMu.Lock()
	err := cc.fw.WriteFrame(wire.Frame{Type: reqType, ID: id, Timeout: timeout, Stream: stream, Payload: payload})
	cc.writeMu.Unlock()
	if err != nil {
		cc.shutdown(fmt.Errorf("rpc: send: %w", err))
		return nil, err
	}
	return pc, nil
}

// sendCancel tells the server to abandon the request (best-effort — a
// failure only means the server works a little longer).
func (cc *clientConn) sendCancel(id uint64) {
	if cc.isDead() {
		return
	}
	cc.writeMu.Lock()
	err := cc.fw.WriteFrame(wire.Frame{Type: wire.TypeCancel, ID: id})
	cc.writeMu.Unlock()
	if err != nil {
		cc.shutdown(fmt.Errorf("rpc: send cancel: %w", err))
	}
}

// abandon removes the call from the pending table (if still owned) and
// settles it. Returns true when this caller won the removal race.
func (pc *pendingCall) abandon() bool {
	pc.cc.mu.Lock()
	_, owned := pc.cc.pending[pc.id]
	if owned {
		delete(pc.cc.pending, pc.id)
	}
	pc.cc.mu.Unlock()
	if owned {
		close(pc.settled)
	}
	return owned
}

// wait blocks for the call's response, the context's cancellation, or the
// transport timeout, whichever lands first. On success the returned pooled
// buffer (which the frame's payload aliases) belongs to the caller, who
// releases it with wire.PutBuf after decoding.
//
//shhc:returns-buf
func (pc *pendingCall) wait(ctx context.Context, timeout time.Duration) (wire.Frame, *[]byte, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp, ok := <-pc.ch:
		if !ok {
			pc.cc.mu.Lock()
			err := pc.cc.deadErr
			pc.cc.mu.Unlock()
			if err == nil {
				err = errors.New("rpc: connection closed")
			}
			return wire.Frame{}, nil, err
		}
		return resp.f, resp.body, nil
	case <-ctx.Done():
		if pc.abandon() {
			pc.cc.sendCancel(pc.id)
		} else {
			pc.discardSettled()
		}
		return wire.Frame{}, nil, ctx.Err()
	case <-timer.C:
		if pc.abandon() {
			pc.cc.sendCancel(pc.id)
		} else {
			pc.discardSettled()
		}
		return wire.Frame{}, nil, fmt.Errorf("rpc: %v: request timed out after %v", pc.reqType, timeout)
	}
}

// answer is wait for a caller that decodes the response at once: it counts
// the response consumed, so the stream's response window reopens without
// another wire round, and turns an error frame into its *ServerError.
//
//shhc:returns-buf
func (pc *pendingCall) answer(ctx context.Context, timeout time.Duration) (wire.Frame, *[]byte, error) {
	resp, body, err := pc.wait(ctx, timeout)
	if err != nil {
		return wire.Frame{}, nil, err
	}
	pc.cc.grantConsumed(resp.Stream, len(resp.Payload))
	if resp.Type == wire.TypeError {
		se := decodeServerError(resp.Payload)
		wire.PutBuf(body)
		return wire.Frame{}, nil, se
	}
	return resp, body, nil
}

// discardSettled releases the response an abandon race lost to. When
// abandon returns false, another party removed the call from the pending
// table first: the read loop, which then deposits the response — with its
// pooled body — into pc.ch before closing settled, or shutdown, which
// closes ch empty. This waiter is the only receiver, so without a drain
// here that body would be stranded in the buffered channel forever (a
// pool leak on every lost cancellation/timeout race). Settlement is
// already imminent when abandon loses, so the wait is bounded.
func (pc *pendingCall) discardSettled() {
	<-pc.settled
	select {
	case resp, ok := <-pc.ch:
		if ok {
			n := len(resp.f.Payload)
			wire.PutBuf(resp.body)
			pc.cc.grantConsumed(resp.f.Stream, n)
		}
	default:
	}
}
