package rpc

import (
	"context"
	"fmt"
	"testing"
	"time"

	"shhc/internal/core"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

func benchClient(b *testing.B) *Client {
	b.Helper()
	node, err := core.NewNode(core.NodeConfig{
		ID:            "bench",
		Store:         hashdb.CreateMem(nil, hashdb.Options{}),
		CacheSize:     1 << 14,
		BloomExpected: 1 << 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	client, err := Dial(ring.NodeID("bench"), addr.String(), ClientConfig{Conns: 2, Timeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		client.Close()
		srv.Close()
		node.Close()
	})
	return client
}

func BenchmarkRPCSingleLookup(b *testing.B) {
	client := benchClient(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.LookupOrInsert(context.Background(), fp(uint64(i)), core.Value(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCBatch(b *testing.B) {
	for _, size := range []int{128, 2048} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			client := benchClient(b)
			pairs := make([]core.Pair, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range pairs {
					pairs[j] = core.Pair{FP: fp(uint64(i*size + j)), Val: core.Value(j)}
				}
				if _, err := client.BatchLookupOrInsert(context.Background(), pairs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
		})
	}
}

func BenchmarkRPCPipelinedClients(b *testing.B) {
	client := benchClient(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := client.LookupOrInsert(context.Background(), fp(uint64(i)), 1); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
