package rpc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/core"
	"shhc/internal/hashdb"
)

// TestServerDeathMidFlight kills the server while many requests are in
// flight: every outstanding call must return an error (not hang), and the
// client must be reusable once a server is back.
func TestServerDeathMidFlight(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{
		ID:            "chaos",
		Store:         hashdb.NewMemStore(),
		CacheSize:     256,
		BloomExpected: 1 << 16,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client, err := Dial("chaos", addr.String(), ClientConfig{Conns: 2, Timeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	var (
		wg       sync.WaitGroup
		returned atomic.Int64
	)
	const inflight = 64
	start := make(chan struct{})
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 100; i++ {
				_, err := client.LookupOrInsert(context.Background(), fp(uint64(g*1000+i)), 1)
				if err != nil {
					returned.Add(1)
					return
				}
			}
			returned.Add(1)
		}(g)
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let traffic build
	srv.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d goroutines returned; calls hung after server death", returned.Load(), inflight)
	}

	// Bring a server back on the same port; the pool must recover.
	srv2 := NewServer(node, ServerConfig{})
	if _, err := srv2.Listen(addr.String()); err != nil {
		t.Fatalf("relisten: %v", err)
	}
	defer srv2.Close()
	var pingErr error
	for attempt := 0; attempt < 10; attempt++ {
		if pingErr = client.Ping(context.Background()); pingErr == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if pingErr != nil {
		t.Fatalf("client did not recover: %v", pingErr)
	}
}

// TestPipelinedResponsesInterleave verifies a slow batch does not stall a
// later fast request on the same connection pool.
func TestPipelinedResponsesInterleave(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{
		ID:            "pipeline",
		Store:         hashdb.NewMemStore(),
		CacheSize:     16,
		BloomExpected: 1 << 20,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()
	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client, err := Dial("pipeline", addr.String(), ClientConfig{Conns: 1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	// Launch a large batch (slow) and immediately a ping (fast).
	bigDone := make(chan error, 1)
	go func() {
		pairs := make([]core.Pair, 100000)
		for i := range pairs {
			pairs[i] = core.Pair{FP: fp(uint64(i)), Val: 1}
		}
		_, err := client.BatchLookupOrInsert(context.Background(), pairs)
		bigDone <- err
	}()
	time.Sleep(time.Millisecond)

	pingStart := time.Now()
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("Ping during batch: %v", err)
	}
	pingLatency := time.Since(pingStart)

	if err := <-bigDone; err != nil {
		t.Fatalf("batch: %v", err)
	}
	// The ping must not have waited for the entire 100k batch. Allow
	// generous slack for CI noise; the regression mode is seconds.
	if pingLatency > 2*time.Second {
		t.Fatalf("ping latency %v; pipelining is head-of-line blocked", pingLatency)
	}
}
