package webfront

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/cloudsim"
	"shhc/internal/core"
	"shhc/internal/hashdb"
)

// heldIndex holds its first lookup open until released, so plans that arrive
// meanwhile queue behind that flight: aggregation is then the batcher's
// doing, not the luck of a clock against a microsecond MemStore node.
type heldIndex struct {
	Index
	held    atomic.Bool
	release chan struct{}
}

func (h *heldIndex) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	if h.held.CompareAndSwap(false, true) {
		<-h.release
	}
	return h.Index.BatchLookupOrInsert(ctx, pairs)
}

// TestCrossRequestAggregation verifies that small plan requests from many
// clients are pooled into shared batches behind the flight in progress, and
// that a plan which finds the front idle does not wait at all.
func TestCrossRequestAggregation(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{
		ID:            "agg",
		Store:         hashdb.NewMemStore(),
		CacheSize:     1 << 10,
		BloomExpected: 1 << 14,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	cluster, err := core.NewCluster(core.ClusterConfig{}, node)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()
	chunks := cloudsim.New(cloudsim.Config{})
	defer chunks.Close()

	index := &heldIndex{Index: cluster, release: make(chan struct{})}
	front, err := New(Config{
		Index:          index,
		Chunks:         chunks,
		AggregateBelow: 64,
		AggregateDelay: time.Hour, // only a landing flight can dispatch the queue
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()
	defer front.Close()

	// 32 concurrent single-fingerprint plans (chatty mobile clients): the
	// first to arrive flies alone and is held; the other 31 queue behind it.
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fp := fmt.Sprintf("%040x", i+1)
			postPlan(t, ts.URL, []string{fp})
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); front.AggregationStats().Queries < 32; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 32 plans reached the aggregator", front.AggregationStats().Queries)
		}
	}
	close(index.release)
	wg.Wait()

	agg := front.AggregationStats()
	if agg.Queries != 32 || agg.Batches != 2 {
		t.Fatalf("aggregator made %d batches of %d queries, want 32 queries as 1 + 31", agg.Batches, agg.Queries)
	}

	// The converse: a lone small plan finds no flight outstanding and is
	// answered at once, though the delay bound is an hour.
	lone := make(chan struct{})
	go func() {
		defer close(lone)
		postPlan(t, ts.URL, []string{fmt.Sprintf("%040x", 99)})
	}()
	select {
	case <-lone:
	case <-time.After(5 * time.Second):
		t.Fatal("a lone small plan waited for the aggregation delay")
	}

	// Large plans must bypass the aggregator.
	fps := make([]string, 128)
	for i := range fps {
		fps[i] = fmt.Sprintf("%040x", 1000+i)
	}
	postPlan(t, ts.URL, fps)
	if got := front.AggregationStats().Queries; got != 33 {
		t.Fatalf("large plan went through the aggregator (queries=%d)", got)
	}
}
