package rpc

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/core"
	"shhc/internal/wire"
)

// rawPeer is a hand-driven connection to a server. The tests that must see
// exactly which frames cross the socket — or send ones a Client never
// would — speak through it.
type rawPeer struct {
	t  *testing.T
	br *bufio.Reader
	fw *wire.FrameWriter
}

// dialRaw connects without shaking hands; reads give up after 5 s so a
// missing frame fails the test instead of hanging it.
func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	return &rawPeer{t: t, br: bufio.NewReader(conn), fw: wire.NewFrameWriter(conn)}
}

func (p *rawPeer) send(f wire.Frame) {
	p.t.Helper()
	if err := p.fw.WriteFrame(f); err != nil {
		p.t.Fatalf("send %v: %v", f.Type, err)
	}
}

// read returns the next frame with its payload detached from the pool.
func (p *rawPeer) read() (wire.Frame, error) {
	f, body, err := wire.ReadFrame(p.br)
	if err != nil {
		return wire.Frame{}, err
	}
	f.Payload = append([]byte(nil), f.Payload...)
	wire.PutBuf(body)
	return f, nil
}

func (p *rawPeer) recv() wire.Frame {
	p.t.Helper()
	f, err := p.read()
	if err != nil {
		p.t.Fatalf("read frame: %v", err)
	}
	return f
}

// pairBatch is the payload of every data verb: a count, then the pairs.
func pairBatch(pairs ...core.Pair) []byte {
	return *appendCorePairBatch(pairs)
}

// hello completes the handshake and returns the server's ack.
func (p *rawPeer) hello() wire.Frame {
	p.t.Helper()
	p.send(wire.Frame{Type: wire.TypeHello, ID: 1, Payload: wire.AppendHello(nil, wire.ProtocolVersion, wire.DefaultWindow)})
	ack := p.recv()
	if ack.Type != wire.TypeHelloAck || ack.ID != 1 {
		p.t.Fatalf("hello answered with %+v, want hello-ack id=1", ack)
	}
	return ack
}

// expectError reads one TypeError frame and returns its decoded payload.
func (p *rawPeer) expectError(id uint64) wire.ErrorPayload {
	p.t.Helper()
	f := p.recv()
	if f.Type != wire.TypeError || f.ID != id {
		p.t.Fatalf("got %v id=%d, want error id=%d", f.Type, f.ID, id)
	}
	ep, err := wire.DecodeErrorPayload(f.Payload)
	if err != nil {
		p.t.Fatalf("decode error payload: %v", err)
	}
	return ep
}

// TestHandshakeVersionMismatch pins both ends of the refusal: the server
// answers anything but a Hello carrying ProtocolVersion with one
// VERSION_MISMATCH error and hangs up, and Dial surfaces the same code
// against a server on another version — once, with no older protocol to
// fall back to.
func TestHandshakeVersionMismatch(t *testing.T) {
	_, client := startNode(t, "n1")
	addr := client.Addr()

	for _, tc := range []struct {
		name  string
		first wire.Frame
	}{
		{"hello with another version", wire.Frame{Type: wire.TypeHello, ID: 4, Payload: wire.AppendHello(nil, wire.ProtocolVersion+1, wire.DefaultWindow)}},
		{"hello with a version-only payload", wire.Frame{Type: wire.TypeHello, ID: 5, Payload: []byte{0, 0, 0, wire.ProtocolVersion}}},
		{"request before any hello", wire.Frame{Type: wire.TypePing, ID: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := dialRaw(t, addr)
			p.send(tc.first)
			if ep := p.expectError(tc.first.ID); ep.Code != wire.CodeVersionMismatch {
				t.Fatalf("refusal = %+v, want %v", ep, wire.CodeVersionMismatch)
			}
			if _, err := p.read(); !errors.Is(err, io.EOF) {
				t.Fatalf("after the refusal: %v, want EOF", err)
			}
		})
	}

	t.Run("second hello", func(t *testing.T) {
		p := dialRaw(t, addr)
		p.hello()
		p.send(wire.Frame{Type: wire.TypeHello, ID: 2, Payload: wire.AppendHello(nil, wire.ProtocolVersion, wire.DefaultWindow)})
		// The server hangs up: the read ends the stream, it does not time
		// out or produce a frame.
		var ne net.Error
		if f, err := p.read(); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("connection still open: read %+v, %v", f, err)
		}
	})

	// A listener that is not this build: it acks the hello with another
	// version, or refuses it the way a newer server would.
	for _, tc := range []struct {
		name  string
		reply func(hello wire.Frame) wire.Frame
	}{
		{"server acks another version", func(hello wire.Frame) wire.Frame {
			return wire.Frame{Type: wire.TypeHelloAck, ID: hello.ID, Payload: wire.AppendHello(nil, wire.ProtocolVersion+1, wire.DefaultWindow)}
		}},
		{"server refuses", func(hello wire.Frame) wire.Frame {
			return wire.Frame{Type: wire.TypeError, ID: hello.ID, Payload: wire.AppendError(nil, wire.ErrorPayload{Code: wire.CodeVersionMismatch, Msg: "no"})}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			defer ln.Close()
			var conns, frames atomic.Int64
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					conns.Add(1)
					go func() {
						defer conn.Close()
						br := bufio.NewReader(conn)
						fw := wire.NewFrameWriter(conn)
						for {
							f, body, err := wire.ReadFrame(br)
							if err != nil {
								return
							}
							frames.Add(1)
							wire.PutBuf(body)
							if fw.WriteFrame(tc.reply(f)) != nil {
								return
							}
						}
					}()
				}
			}()

			c, err := Dial("other", ln.Addr().String(), ClientConfig{Conns: 1})
			if err == nil {
				c.Close()
				t.Fatal("Dial succeeded against a server on another version")
			}
			var se *ServerError
			if !errors.As(err, &se) || se.Code != wire.CodeVersionMismatch {
				t.Fatalf("Dial = %v, want a *ServerError with %v", err, wire.CodeVersionMismatch)
			}
			if nc, nf := conns.Load(), frames.Load(); nc != 1 || nf != 1 {
				t.Fatalf("client opened %d connections and sent %d frames; want one hello on one connection, no retry", nc, nf)
			}
		})
	}
}

// TestDuplicateInflightIDRejected: a frame that reuses the id of a request
// still in flight is refused without touching the first request's cancel
// registration — a CANCEL for the id still reaches the first request.
func TestDuplicateInflightIDRejected(t *testing.T) {
	bb, addr := startBlockingServer(t)
	p := dialRaw(t, addr)
	p.hello()
	lookup := wire.Frame{Type: wire.TypeLookup, ID: 7, Stream: 1, Payload: pairBatch(core.Pair{FP: fp(3)})}
	p.send(lookup) // blocks in the backend
	p.send(lookup) // same id, still in flight
	if ep := p.expectError(7); ep.Code != wire.CodeBadRequest {
		t.Fatalf("duplicate id answered %+v, want %v", ep, wire.CodeBadRequest)
	}
	if n := bb.cancelled.Load(); n != 0 {
		t.Fatalf("refusing the duplicate cancelled %d handlers", n)
	}

	p.send(wire.Frame{Type: wire.TypeCancel, ID: 7})
	if ep := p.expectError(7); ep.Code != wire.CodeCancelled {
		t.Fatalf("cancelled request answered %+v, want %v", ep, wire.CodeCancelled)
	}
	if n := bb.cancelled.Load(); n != 1 {
		t.Fatalf("%d handlers ran to cancellation, want exactly the first request's", n)
	}

	// The id is free again once its request has answered.
	p.send(wire.Frame{Type: wire.TypePing, ID: 7})
	if f := p.recv(); f.Type != wire.TypePong || f.ID != 7 {
		t.Fatalf("reusing the id after completion got %+v, want pong", f)
	}
}

// TestProtocolFreedTypesBadRequest: the type numbers protocol 8 used for its
// single-key lookup-or-insert (2) and result (7) are requests of no type
// now, and a data verb whose count lies is malformed. Each is answered
// BAD_REQUEST, and the connection keeps serving.
func TestProtocolFreedTypesBadRequest(t *testing.T) {
	node, client := startNode(t, "freed")
	p := dialRaw(t, client.Addr())
	p.hello()
	lies := append([]byte{0, 0, 0, 2}, pairBatch(core.Pair{FP: fp(1)})[4:]...)
	for i, f := range []wire.Frame{
		{Type: 2, Payload: pairBatch(core.Pair{FP: fp(1), Val: 1})},
		{Type: 7, Payload: []byte{0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0}},
		{Type: wire.TypeLookup, Payload: lies},
		{Type: wire.TypeInsert, Payload: lies},
	} {
		f.ID, f.Stream = uint64(10+i), 1
		p.send(f)
		if ep := p.expectError(f.ID); ep.Code != wire.CodeBadRequest {
			t.Fatalf("%v answered %+v, want %v", f.Type, ep, wire.CodeBadRequest)
		}
	}
	p.send(wire.Frame{Type: wire.TypePing, ID: 20})
	if f := p.recv(); f.Type != wire.TypePong || f.ID != 20 {
		t.Fatalf("ping after the refusals got %+v, want pong", f)
	}
	if st, err := node.Stats(context.Background()); err != nil || st.Lookups != 0 || st.Inserts != 0 {
		t.Fatalf("refused frames reached the node: %d lookups, %d inserts, %v", st.Lookups, st.Inserts, err)
	}
}
