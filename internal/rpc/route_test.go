package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"shhc/internal/core"
	"shhc/internal/ring"
	"shhc/internal/wire"
)

// A node given a record refuses, over the wire, a call routed on an older
// generation with STALE_ROUTE and its own generation, before the call
// reaches its cache or store; it serves unrouted calls, and holds a call
// routed on a newer generation until it gets there.
func TestStaleRouteRefusedBeforeTheNode(t *testing.T) {
	ctx := context.Background()
	node, client := startNode(t, "n1")
	rec := core.Routing{Gen: 2, VNodes: 16, Replicas: 1, Members: []ring.NodeID{"n1", "n2"}}
	if got, err := client.Routing(ctx, rec); err != nil || got.Gen != 2 {
		t.Fatalf("Routing(gen 2) = %+v, %v", got, err)
	}
	if got, err := client.Routing(ctx, core.Routing{}); err != nil || got.Gen != 2 || got.VNodes != 16 || len(got.Members) != 2 || got.Members[1] != "n2" {
		t.Fatalf("reading the record = %+v, %v; want %+v", got, err, rec)
	}

	_, err := client.BatchLookupOrInsert(core.WithRouteGen(ctx, 1), []core.Pair{{FP: fp(1), Val: 1}})
	var stale *core.StaleRouteError
	var se *ServerError
	if !errors.As(err, &stale) || stale.Gen != 2 || !errors.As(err, &se) || se.Code != wire.CodeStaleRoute {
		t.Fatalf("a call routed on generation 1 = %v, want STALE_ROUTE carrying 2", err)
	}
	if _, err := client.Lookup(core.WithRouteGen(ctx, 1), fp(1)); !errors.As(err, &stale) {
		t.Fatalf("a lookup routed on generation 1 = %v, want STALE_ROUTE", err)
	}
	if st, _ := node.Stats(ctx); st.Lookups != 0 || st.Inserts != 0 {
		t.Fatalf("the refused calls reached the node: %d lookups, %d inserts", st.Lookups, st.Inserts)
	}
	if r, err := client.LookupOrInsert(ctx, fp(1), 1); err != nil || r.Exists {
		t.Fatalf("an unrouted call = %+v, %v; want it served", r, err)
	}
	if r, err := client.Lookup(core.WithRouteGen(ctx, 2), fp(1)); err != nil || !r.Exists {
		t.Fatalf("a call routed on the node's generation = %+v, %v; want it served", r, err)
	}

	early, cancel := context.WithTimeout(core.WithRouteGen(ctx, 3), 50*time.Millisecond)
	defer cancel()
	if _, err := client.Lookup(early, fp(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a call routed on a generation the node never reaches = %v, want its deadline", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := client.Lookup(core.WithRouteGen(ctx, 3), fp(1))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	rec.Gen = 3
	if _, err := client.Routing(ctx, rec); err != nil {
		t.Fatalf("Routing(gen 3): %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("a call held for generation 3 = %v once the node got there", err)
	}
}

// A cluster over remote nodes learns, from a STALE_ROUTE, the record a
// node was raised to behind its back, and routes its batch again on it.
func TestStaleRouteRelearnedOverRPC(t *testing.T) {
	ctx := context.Background()
	clients := make([]*Client, 2)
	backends := make([]core.Backend, 2)
	for i, id := range []ring.NodeID{"r0", "r1"} {
		_, clients[i] = startNode(t, id)
		backends[i] = clients[i]
	}
	c, err := core.NewCluster(core.ClusterConfig{}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	pairs := make([]core.Pair, 200)
	for i := range pairs {
		pairs[i] = core.Pair{FP: fp(uint64(i)), Val: core.Value(i)}
	}
	if _, err := c.BatchLookupOrInsert(ctx, pairs); err != nil {
		t.Fatalf("batch at generation 1: %v", err)
	}
	// Another front raised both nodes to generation 5 of the same membership.
	for _, cl := range clients {
		if _, err := cl.Routing(ctx, core.Routing{Gen: 5, Replicas: 1, Members: []ring.NodeID{"r0", "r1"}}); err != nil {
			t.Fatalf("Routing: %v", err)
		}
	}
	rs, err := c.BatchLookupOrInsert(ctx, pairs)
	if err != nil {
		t.Fatalf("batch after the raise: %v", err)
	}
	for i, r := range rs {
		if !r.Exists || r.Value != core.Value(i) {
			t.Fatalf("pair %d after the raise = %+v, want its duplicate", i, r)
		}
	}
	if r, err := c.Lookup(ctx, fp(7)); err != nil || !r.Exists {
		t.Fatalf("Lookup after the raise = %+v, %v", r, err)
	}
}

// A version-9 hello — a 21-byte header, then version and window — is
// refused with VERSION_MISMATCH: the 8 bytes this version reads as the
// generation leave the hello without its payload.
func TestHandshakeRefusesProtocol9Hello(t *testing.T) {
	_, client := startNode(t, "n1")
	conn, err := net.Dial("tcp", client.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := binary.BigEndian.AppendUint32(nil, 21+8)
	hello = append(hello, byte(wire.TypeHello))
	hello = binary.BigEndian.AppendUint64(hello, 5) // id
	hello = binary.BigEndian.AppendUint64(hello, 0) // timeout
	hello = binary.BigEndian.AppendUint32(hello, 0) // stream
	hello = wire.AppendHello(hello, 9, wire.DefaultWindow)
	if _, err := conn.Write(hello); err != nil {
		t.Fatalf("write: %v", err)
	}
	f, body, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("read the refusal: %v", err)
	}
	defer wire.PutBuf(body)
	if ep, err := wire.DecodeErrorPayload(f.Payload); f.Type != wire.TypeError || f.ID != 5 || err != nil || ep.Code != wire.CodeVersionMismatch {
		t.Fatalf("answer = %v id %d, %+v, %v; want a VERSION_MISMATCH error for id 5", f.Type, f.ID, ep, err)
	}
}
