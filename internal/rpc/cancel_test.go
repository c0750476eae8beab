package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/core"
	"shhc/internal/device"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
	"shhc/internal/wire"
)

// startSleepyNode serves a node whose store sleeps readBase a read call of up
// to 16 keys — a modeled slow device with real (wall-clock) latency — and
// holds seeded.
// Writes are free, so seeding costs nothing; the node's Bloom filter admits
// the seeded fingerprints, so a lookup of one reaches the sleeping store.
func startSleepyNode(t *testing.T, id ring.NodeID, readBase time.Duration, cfg ClientConfig, seeded ...fingerprint.Fingerprint) (*core.Node, *Client) {
	t.Helper()
	store := device.Slow(hashdb.NewMemStore(), device.Model{Name: "sleepy", ReadBase: readBase})
	for i, f := range seeded {
		if _, err := store.Put(f, hashdb.Value(i+1)); err != nil {
			t.Fatalf("seed: %v", err)
		}
	}
	node, err := core.NewNode(core.NodeConfig{ID: id, Store: store})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client, err := Dial(id, addr.String(), cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		node.Close()
	})
	return node, client
}

// TestDeadlineBoundsSleepingRemoteLookup is the acceptance check: a
// context deadline on the client demonstrably bounds a remote lookup that
// is stuck behind a sleeping device, and the failure is
// context.DeadlineExceeded — not a generic wire error.
func TestDeadlineBoundsSleepingRemoteLookup(t *testing.T) {
	_, client := startSleepyNode(t, "sleepy", 300*time.Millisecond, ClientConfig{Timeout: 30 * time.Second}, fp(1))

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Lookup(ctx, fp(1))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined remote lookup = %v, want context.DeadlineExceeded", err)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("deadlined lookup took %v — the 25ms deadline did not bound the 300ms device", elapsed)
	}
}

// TestDeadlineExpiredBeforeSendShortCircuits: a context already expired
// never touches the wire.
func TestDeadlineExpiredBeforeSendShortCircuits(t *testing.T) {
	_, client := startNode(t, "n1")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := client.Lookup(ctx, fp(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-context lookup = %v, want context.DeadlineExceeded", err)
	}
}

// blockingBackend blocks Lookup until its context is done, recording that
// the server-side cancellation actually reached the handler.
type blockingBackend struct {
	core.Backend
	entered, cancelled atomic.Int64
}

func (b *blockingBackend) Lookup(ctx context.Context, p fingerprint.Fingerprint) (core.LookupResult, error) {
	b.entered.Add(1)
	<-ctx.Done()
	b.cancelled.Add(1)
	return core.LookupResult{}, ctx.Err()
}

// waitEntered waits until n handlers have blocked in the backend: a CANCEL
// sent earlier can land before the handler reaches it, and the server then
// answers CANCELLED without calling the backend at all.
func (b *blockingBackend) waitEntered(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for b.entered.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d handlers reached the backend in 10s", b.entered.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// startBlockingServer serves a blockingBackend and returns it with the
// server's address.
func startBlockingServer(t *testing.T) (*blockingBackend, string) {
	t.Helper()
	node, err := core.NewNode(core.NodeConfig{ID: "n1", Store: hashdb.NewMemStore()})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	bb := &blockingBackend{Backend: node}
	srv := NewServer(bb, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	return bb, addr.String()
}

// TestCancelFrameStopsServerWork: cancelling the client context makes the
// client return immediately AND propagates a CANCEL frame that unblocks
// the server-side handler.
func TestCancelFrameStopsServerWork(t *testing.T) {
	bb, addr := startBlockingServer(t)
	client, err := Dial("n1", addr, ClientConfig{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.Lookup(ctx, fp(9))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the request reach the blocked handler
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled remote lookup = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled client call did not return")
	}
	// The CANCEL frame must unblock the server handler.
	deadline := time.Now().Add(2 * time.Second)
	for bb.cancelled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server handler never observed the cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineRidesWireToServer: the server derives its handler context
// from the frame's deadline — even with no client-side waiting involved,
// a request whose deadline lapses server-side answers with the context
// error. Uses a raw conn so the client-side select cannot be the one
// enforcing the deadline.
func TestDeadlineRidesWireToServer(t *testing.T) {
	bb, addr := startBlockingServer(t)
	peer := dialRaw(t, addr)
	peer.hello()

	// A lookup with a 30ms budget; the blocked handler can only be
	// released by that server-side derived deadline.
	peer.send(wire.Frame{Type: wire.TypeLookup, ID: 2, Timeout: 30 * time.Millisecond, Payload: pairBatch(core.Pair{FP: fp(3)})})
	resp := peer.recv()
	if resp.Type != wire.TypeError {
		t.Fatalf("response type = %v, want error", resp.Type)
	}
	ep, err := wire.DecodeErrorPayload(resp.Payload)
	if err != nil {
		t.Fatalf("decode error payload: %v", err)
	}
	if ep.Code != wire.CodeDeadline {
		t.Fatalf("server error %+v does not carry %v", ep, wire.CodeDeadline)
	}
	if bb.cancelled.Load() != 1 {
		t.Fatalf("handler cancelled %d times, want 1", bb.cancelled.Load())
	}
}

// TestDeadlineErrorMapsAcrossWire: a server error carrying the DEADLINE
// code unwraps to context.DeadlineExceeded on the client, CANCELLED to
// context.Canceled, and nothing else does — whatever the message says.
func TestDeadlineErrorMapsAcrossWire(t *testing.T) {
	coded := func(code wire.Code, msg string) error {
		return decodeServerError(wire.AppendError(nil, wire.ErrorPayload{Code: code, Msg: msg}))
	}
	err := coded(wire.CodeDeadline, "core: node n1: lookup: context deadline exceeded")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mapped server error %v does not unwrap to DeadlineExceeded", err)
	}
	err = coded(wire.CodeCancelled, "context canceled")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mapped server error %v does not unwrap to Canceled", err)
	}
	err = coded(wire.CodeInternal, "disk on fire")
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("generic server error %v wrongly unwraps to a context error", err)
	}
	err = coded(wire.CodeInternal, "replica said: context deadline exceeded")
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("server error %v unwraps to a context error on the strength of its message", err)
	}
}
