package rpc

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"shhc/internal/core"
	"shhc/internal/hashdb"
	"shhc/internal/wire"
)

// TestMuxStreamInterleavingStormRPC hammers one multiplexed connection
// with many stream handles doing a mix of synchronous single-key calls
// and pipelined batches, all concurrently. Run under -race in CI, it is
// the end-to-end proof that per-stream credit accounting, the coalesced
// flusher, and response demultiplexing hold up under interleaving.
func TestMuxStreamInterleavingStormRPC(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{ID: "storm", Store: hashdb.NewMemStore(), CacheSize: 1024})
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

// TestCreditStallIsolatesSiblingStream: one stream pipelines batches and
// never collects them, so its response window on the server runs dry and,
// with the responses unflushed, its request window here runs dry too. A
// sibling stream on the same connection must still complete its batches
// before a deadline: a stalled consumer's exhausted credit is its own
// problem, never its neighbours'.
func TestCreditStallIsolatesSiblingStream(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{ID: "stall", Store: hashdb.NewMemStore(), CacheSize: 1024})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	// One TCP connection: isolation must come from stream credit, not from
	// the staller being parked on a socket of its own.
	client, err := Dial("stall", addr.String(), ClientConfig{Conns: 1, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() {
		client.Close()
		srv.Close()
		node.Close()
	}()
	batch := func(base uint64) []core.Pair {
		pairs := make([]core.Pair, 64)
		for i := range pairs {
			pairs[i] = core.Pair{FP: fp(base + uint64(i)), Val: core.Value(i + 1)}
		}
		return pairs
	}

	// The staller's futures are never collected; cancelling its context is
	// what unblocks its credit wait and settles them at teardown.
	stallCtx, stopStaller := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, pairs := client.OpenStream(), batch(0)
		for stallCtx.Err() == nil {
			st.GoBatchLookupOrInsert(stallCtx, pairs)
		}
	}()
	defer func() {
		stopStaller()
		wg.Wait()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		st, err := client.Stats(ctx)
		if err != nil {
			t.Fatalf("the server's credit window never shut: %v", err)
		}
		if st.Transport.CreditStalls > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	const batches = 200
	sibling, pairs := client.OpenStream(), batch(1<<20)
	for i := 0; i < batches; i++ {
		rs, err := sibling.BatchLookupOrInsert(ctx, pairs)
		if err != nil {
			t.Fatalf("sibling batch %d of %d beside a stalled stream: %v", i, batches, err)
		}
		if !rs[0].Exists && i > 0 {
			t.Fatalf("sibling batch %d: %+v, want the duplicate of batch 0", i, rs[0])
		}
	}
	if client.CreditStalls() == 0 {
		t.Fatal("the staller never blocked on send credit: the test did not stall anything")
	}
}

// TestStreamHandshakeWindowAdvertisement pins the hello exchange: the
// HelloAck carries the server's per-stream response window, so the client
// can coalesce consumption grants.
func TestStreamHandshakeWindowAdvertisement(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{ID: "hello", Store: hashdb.NewMemStore()})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := NewServer(node, ServerConfig{window: 128 << 10})
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

// TestRedialBrieflyRestartedNode is the regression test for the bounded
// redial: the server dies and comes back on the same address while the
// caller is between requests; the caller's next (single) call must ride
// the client's own redial-with-backoff to success — no caller-side retry
// loop.
func TestRedialBrieflyRestartedNode(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{ID: "flap", Store: hashdb.NewMemStore(), CacheSize: 8})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client, err := Dial("flap", addr.String(), ClientConfig{Conns: 1, Timeout: 5 * time.Second})
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
	// backoff is in flight: between its attempts at ≈ 50 and ≈ 150 ms.
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
