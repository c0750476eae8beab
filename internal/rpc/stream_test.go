package rpc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/wire"
)

// TestMuxStreamInterleavingStormRPC hammers one multiplexed connection
// with many stream handles doing a mix of synchronous single-key calls
// and pipelined batches, all concurrently. Run under -race in CI, it is
// the end-to-end proof that per-stream credit accounting, the coalesced
// flusher, and response demultiplexing hold up under interleaving.
func TestMuxStreamInterleavingStormRPC(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{ID: "storm", Store: hashdb.NewMemStore(nil), CacheSize: 1024})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	// One TCP connection: every stream below shares it.
	client, err := Dial("storm", addr.String(), ClientConfig{Conns: 1, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() {
		client.Close()
		srv.Close()
		node.Close()
	}()
	const (
		streams = 24
		rounds  = 30
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := client.OpenStream()
			base := uint64(i) << 32
			for r := 0; r < rounds; r++ {
				// Synchronous single-key op: value is derived from the
				// key, so any cross-stream response mixup is detected.
				want := core.Value(base + uint64(r) + 1)
				res, err := st.LookupOrInsert(ctx, fp(base+uint64(r)), want)
				if err != nil {
					errs <- fmt.Errorf("stream %d round %d: %v", i, r, err)
					return
				}
				if res.Exists {
					errs <- fmt.Errorf("stream %d round %d: fresh key reported duplicate", i, r)
					return
				}
				// Pipelined batch on the same stream, collected
				// out-of-order with the single-key traffic.
				pairs := make([]core.Pair, 8)
				for j := range pairs {
					pairs[j] = core.Pair{FP: fp(base + uint64(r)<<8 + uint64(j) + 1<<20), Val: want}
				}
				bc := st.GoBatchLookupOrInsert(ctx, pairs)
				if _, err := bc.Results(); err != nil {
					errs <- fmt.Errorf("stream %d round %d batch: %v", i, r, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The storm ran on real streams: the server's transport gauges must
	// have seen them.
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Transport.StreamsOpen == 0 {
		t.Error("server reports zero open streams after a multiplexed storm")
	}
}

// TestStreamHandshakeWindowAdvertisement pins the hello exchange: the
// HelloAck carries the server's per-stream response window, so the client
// can coalesce consumption grants.
func TestStreamHandshakeWindowAdvertisement(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{ID: "hello", Store: hashdb.NewMemStore(nil)})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := NewServer(node, ServerConfig{Window: 128 << 10})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer func() {
		srv.Close()
		node.Close()
	}()

	ack := dialRaw(t, addr.String()).hello()
	if _, got, err := wire.DecodeHello(ack.Payload); err != nil || got != 128<<10 {
		t.Fatalf("HelloAck advertises window %d (%v), want the server's configured %d", got, err, 128<<10)
	}
}

// countingBackend counts single-key lookups that actually reach the
// backend — a NOT_OWNER answer must short-circuit before this.
type countingBackend struct {
	core.Backend
	lookups atomic.Int64
}

func (b *countingBackend) Lookup(ctx context.Context, p fingerprint.Fingerprint) (core.LookupResult, error) {
	b.lookups.Add(1)
	return b.Backend.Lookup(ctx, p)
}

func (b *countingBackend) LookupOrInsert(ctx context.Context, p fingerprint.Fingerprint, v core.Value) (core.LookupResult, error) {
	b.lookups.Add(1)
	return b.Backend.LookupOrInsert(ctx, p, v)
}

// TestNotOwnerRedirectOneHop pins the redirect loop end to end: a client
// holding a stale ring dials the wrong node, gets a typed NOT_OWNER
// answer carrying the true owner's identity, re-issues the request there
// transparently, and the wrong node's backend never runs the verb.
func TestNotOwnerRedirectOneHop(t *testing.T) {
	// The true owner.
	ownerNode, err := core.NewNode(core.NodeConfig{ID: "owner", Store: hashdb.NewMemStore(nil), CacheSize: 64})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	ownerSrv := NewServer(ownerNode, ServerConfig{})
	ownerAddr, err := ownerSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen owner: %v", err)
	}

	// The wrong node: its Owner hook disclaims every fingerprint.
	wrongNode, err := core.NewNode(core.NodeConfig{ID: "wrong", Store: hashdb.NewMemStore(nil), CacheSize: 64})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	wrongBackend := &countingBackend{Backend: wrongNode}
	wrongSrv := NewServer(wrongBackend, ServerConfig{
		Owner: func(fp fingerprint.Fingerprint) (string, string, bool) {
			return "owner", ownerAddr.String(), false
		},
	})
	wrongAddr, err := wrongSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen wrong: %v", err)
	}

	client, err := Dial("wrong", wrongAddr.String(), ClientConfig{Conns: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() {
		client.Close()
		wrongSrv.Close()
		ownerSrv.Close()
		wrongNode.Close()
		ownerNode.Close()
	}()

	ctx := context.Background()
	res, err := client.LookupOrInsert(ctx, fp(42), 99)
	if err != nil {
		t.Fatalf("redirected LookupOrInsert: %v", err)
	}
	if res.Exists {
		t.Fatal("fresh key reported duplicate after redirect")
	}

	// The write landed on the true owner, not the dialed node.
	if got, err := ownerNode.Lookup(ctx, fp(42)); err != nil || got.Value != 99 {
		t.Fatalf("owner node lookup after redirect = %+v, %v — the redirected write missed the owner", got, err)
	}
	if n := wrongBackend.lookups.Load(); n != 0 {
		t.Fatalf("wrong node's backend ran %d lookups — NOT_OWNER must short-circuit before the backend", n)
	}
	if n := client.RedirectsFollowed(); n != 1 {
		t.Fatalf("client followed %d redirects, want exactly 1 (one hop, no chain)", n)
	}

	// The wrong node accounts for the redirect it issued.
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Transport.RedirectsIssued != 1 {
		t.Fatalf("wrong node reports %d redirects issued, want 1", st.Transport.RedirectsIssued)
	}

	// A second op on the same key reuses the cached redirect client and
	// reads the owner's copy.
	res, err = client.Lookup(ctx, fp(42))
	if err != nil || !res.Exists || res.Value != 99 {
		t.Fatalf("second redirected lookup = %+v, %v", res, err)
	}
	if n := client.RedirectsFollowed(); n != 2 {
		t.Fatalf("client followed %d redirects after two ops, want 2", n)
	}
}

// TestRedirectDisabled pins the opt-out: with NoRedirects set the typed
// NOT_OWNER error surfaces to the caller, owner coordinates intact — the
// mode the cluster router itself uses to avoid redirect chains.
func TestRedirectDisabled(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{ID: "wrong", Store: hashdb.NewMemStore(nil)})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := NewServer(node, ServerConfig{
		Owner: func(fp fingerprint.Fingerprint) (string, string, bool) {
			return "elsewhere", "198.51.100.7:9999", false
		},
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client, err := Dial("wrong", addr.String(), ClientConfig{Conns: 1, NoRedirects: true, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() {
		client.Close()
		srv.Close()
		node.Close()
	}()

	_, err = client.Lookup(context.Background(), fp(5))
	if err == nil {
		t.Fatal("lookup on a disclaimed key succeeded with redirects disabled")
	}
	se, ok := err.(*ServerError)
	if !ok {
		t.Fatalf("error type %T, want *ServerError", err)
	}
	if se.Code != wire.CodeNotOwner || se.OwnerID != "elsewhere" || se.OwnerAddr != "198.51.100.7:9999" {
		t.Fatalf("NOT_OWNER error = %+v, want code %d with owner identity intact", se, wire.CodeNotOwner)
	}
}

// TestRedialBrieflyRestartedNode is the regression test for the bounded
// redial: the server dies and comes back on the same address while the
// caller is between requests; the caller's next (single) call must ride
// the client's own redial-with-backoff to success — no caller-side retry
// loop.
func TestRedialBrieflyRestartedNode(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{ID: "flap", Store: hashdb.NewMemStore(nil), CacheSize: 8})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client, err := Dial("flap", addr.String(), ClientConfig{
		Conns:          1,
		Timeout:        5 * time.Second,
		RedialAttempts: 8,
		RedialBackoff:  25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	if _, err := client.LookupOrInsert(context.Background(), fp(1), 3); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	// Kill the server; give the read loop a beat to mark the conn dead.
	srv.Close()
	time.Sleep(50 * time.Millisecond)

	// Restart on the same port shortly — while the client's redial
	// backoff is in flight.
	restarted := make(chan *Server, 1)
	go func() {
		time.Sleep(75 * time.Millisecond)
		srv2 := NewServer(node, ServerConfig{})
		if _, err := srv2.Listen(addr.String()); err != nil {
			t.Errorf("relisten: %v", err)
		}
		restarted <- srv2
	}()
	defer func() {
		if srv2 := <-restarted; srv2 != nil {
			srv2.Close()
		}
	}()

	// ONE call, no retry loop: the redial backoff must absorb the outage.
	res, err := client.Lookup(context.Background(), fp(1))
	if err != nil {
		t.Fatalf("single call across brief restart failed: %v", err)
	}
	if !res.Exists || res.Value != 3 {
		t.Fatalf("lookup after restart = %+v, want the pre-restart insert", res)
	}
}
