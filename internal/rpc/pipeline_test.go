package rpc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/core"
	"shhc/internal/ring"
)

// gatedBackend wraps a core.Backend, blocking BatchLookupOrInsert calls
// whose first fingerprint is in the slow set until the gate opens — a
// stand-in for a batch stalled on a remote node's SSD phase.
type gatedBackend struct {
	core.Backend
	gate    chan struct{}
	slowFP  uint64
	stalled atomic.Int64
}

func (g *gatedBackend) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	if len(pairs) > 0 && pairs[0].Val == core.Value(g.slowFP) {
		g.stalled.Add(1)
		<-g.gate
	}
	return g.Backend.BatchLookupOrInsert(context.Background(), pairs)
}

func startGatedNode(t *testing.T, id ring.NodeID, slowVal uint64) (*gatedBackend, *Client) {
	t.Helper()
	node, _ := startNode(t, id+"-inner")
	gb := &gatedBackend{Backend: node, gate: make(chan struct{}), slowFP: slowVal}
	srv := NewServer(gb, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client, err := Dial(id, addr.String(), ClientConfig{Conns: 1, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return gb, client
}

// TestPipelinedBatchesOverlapOnOneConnection sends a slow batch followed
// by fast batches on a single pooled connection: the fast batches must
// complete while the slow one is still stalled server-side. This is the
// property that keeps one SSD-bound batch from blocking a whole
// connection.
func TestPipelinedBatchesOverlapOnOneConnection(t *testing.T) {
	const slowVal = 999999
	gb, client := startGatedNode(t, "pipeline-overlap", slowVal)

	slow := client.GoBatchLookupOrInsert(context.Background(), []core.Pair{{FP: fp(1), Val: slowVal}})
	// Wait until the slow batch is provably stalled inside the server.
	deadline := time.Now().Add(5 * time.Second)
	for gb.stalled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow batch never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	const fastBatches = 8
	for b := 0; b < fastBatches; b++ {
		pairs := make([]core.Pair, 4)
		for j := range pairs {
			pairs[j] = core.Pair{FP: fp(uint64(100 + b*4 + j)), Val: core.Value(b*4 + j + 1)}
		}
		rs, err := client.GoBatchLookupOrInsert(context.Background(), pairs).Results()
		if err != nil {
			t.Fatalf("fast batch %d (behind a stalled batch on the same connection): %v", b, err)
		}
		if len(rs) != len(pairs) {
			t.Fatalf("fast batch %d: %d results for %d pairs", b, len(rs), len(pairs))
		}
	}

	select {
	case <-slow.Done():
		t.Fatal("slow batch completed before the gate opened")
	default:
	}
	close(gb.gate)
	rs, err := slow.Results()
	if err != nil {
		t.Fatalf("slow batch: %v", err)
	}
	if len(rs) != 1 || rs[0].Exists {
		t.Fatalf("slow batch results = %+v, want one \"new\"", rs)
	}
}

// TestPipeliningManyInFlightBatches keeps dozens of batch futures in
// flight on one connection from many goroutines and checks every response
// lands on the right request (the ids can't cross wires). Run under -race
// in CI.
func TestPipeliningManyInFlightBatches(t *testing.T) {
	node, client := startNode(t, "pipeline-many")
	_ = node

	single, err := Dial("pipeline-many-single", client.addr, ClientConfig{Conns: 1, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer single.Close()

	const (
		goroutines = 8
		rounds     = 25
		batchSize  = 16
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			calls := make([]*BatchCall, 0, rounds)
			expect := make([][]core.Pair, 0, rounds)
			for r := 0; r < rounds; r++ {
				pairs := make([]core.Pair, batchSize)
				for j := range pairs {
					key := uint64(g*1000000 + r*batchSize + j)
					pairs[j] = core.Pair{FP: fp(key), Val: core.Value(key + 1)}
				}
				calls = append(calls, single.GoBatchLookupOrInsert(context.Background(), pairs))
				expect = append(expect, pairs)
			}
			for r, call := range calls {
				rs, err := call.Results()
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				for j, res := range rs {
					// Every fingerprint is unique to (g, r, j): the first
					// answer must be "new". A crossed response id would
					// surface as a duplicate or a wrong value here.
					if res.Exists {
						t.Errorf("goroutine %d round %d item %d: unexpected duplicate %+v", g, r, j, res)
						return
					}
					_ = expect[r][j]
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPipelinedBatchDoneChannel: Done must not fire before the response
// and must fire after it.
func TestPipelinedBatchDoneChannel(t *testing.T) {
	const slowVal = 888888
	gb, client := startGatedNode(t, "pipeline-done", slowVal)

	call := client.GoBatchLookupOrInsert(context.Background(), []core.Pair{{FP: fp(2), Val: slowVal}})
	deadline := time.Now().Add(5 * time.Second)
	for gb.stalled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-call.Done():
		t.Fatal("Done fired while the batch was stalled server-side")
	case <-time.After(20 * time.Millisecond):
	}
	close(gb.gate)
	select {
	case <-call.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done never fired after the response")
	}
	if _, err := call.Results(); err != nil {
		t.Fatalf("Results after Done: %v", err)
	}
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
