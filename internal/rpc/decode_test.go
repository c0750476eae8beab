package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"

	"shhc/internal/core"
	"shhc/internal/wire"
)

// TestBatchCallDoneFailedBeforeSend: a call that never reached the wire is
// done from the start, and saying so costs nothing per call.
func TestBatchCallDoneFailedBeforeSend(t *testing.T) {
	_, client := startNode(t, "done-closed")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	call := client.GoBatchLookupOrInsert(ctx, []core.Pair{{FP: fp(1), Val: 1}})
	select {
	case <-call.Done():
	default:
		t.Fatal("Done not closed for a call that failed before sending")
	}
	if _, err := call.Results(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Results = %v, want context.Canceled", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { <-call.Done() }); allocs != 0 {
		t.Fatalf("Done on a failed call allocates %v/op; want 0", allocs)
	}
}

// TestDecodeCoreResults: the one decode-into-[]core.LookupResult helper
// behind both BatchCall.wait and ApplyRepair.
func TestDecodeCoreResults(t *testing.T) {
	want := []core.LookupResult{
		{Exists: true, Source: core.SourceCache, Value: 7},
		{Exists: false, Source: core.SourceNew},
		{Exists: true, Source: core.SourceStore, Value: 1 << 40},
	}
	payload := binary.BigEndian.AppendUint32(nil, uint32(len(want)))
	for _, r := range want {
		payload = wire.AppendResult(payload, toWireResult(r))
	}
	got, err := decodeCoreResults(payload, len(want), "batch")
	if err != nil {
		t.Fatalf("decodeCoreResults: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := decodeCoreResults(payload, 4, "repair"); err == nil ||
		!strings.Contains(err.Error(), "repair answered 3 results for 4 pairs") {
		t.Fatalf("count mismatch: %v", err)
	}
	if _, err := decodeCoreResults(payload[:len(payload)-1], 3, "batch"); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestServerPairBuffersNotShared: the server decodes batch frames into
// pooled pair buffers; concurrent batches of different sizes on one
// connection must each be answered for their own pairs.
func TestServerPairBuffersNotShared(t *testing.T) {
	_, client := startNode(t, "pair-pool")
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				size := []int{1, 700, 9, 64}[(g+round)%4]
				base := uint64(g*1_000_000 + round*1000)
				pairs := make([]core.Pair, size)
				for j := range pairs {
					pairs[j] = core.Pair{FP: fp(base + uint64(j)), Val: core.Value(base + uint64(j) + 1)}
				}
				for pass := 0; pass < 2; pass++ {
					var (
						rs  []core.LookupResult
						err error
					)
					if pass == 0 {
						rs, err = client.BatchLookupOrInsert(ctx, pairs)
					} else {
						rs, err = client.ApplyRepair(ctx, pairs)
					}
					if err != nil || len(rs) != size {
						t.Errorf("batch of %d: %d results, %v", size, len(rs), err)
						return
					}
					for j, r := range rs {
						if r.Exists != (pass == 1) || (r.Exists && r.Value != pairs[j].Val) {
							t.Errorf("g%d round %d pass %d pair %d: %+v (another batch's pair?)", g, round, pass, j, r)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
