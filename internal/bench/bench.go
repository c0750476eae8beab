// Package bench is the experiment harness that regenerates the paper's
// evaluation: Figure 1, Table I, Figure 5 and Figure 6. cmd/shhc-bench
// drives it from the command line; the repository-root benchmarks drive it
// from `go test -bench`.
//
// Absolute numbers depend on the host; the harness exists to reproduce the
// *shape* of each result: which configuration wins, by roughly what factor,
// and where curves cross.
package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/ring"
	"shhc/internal/rpc"
	"shhc/internal/trace"
)

// buildLocalCluster assembles an in-process cluster of n hybrid nodes with
// memory-backed stores.
func buildLocalCluster(n, cacheSize, expected int) (*core.Cluster, error) {
	backends := make([]core.Backend, 0, n)
	for i := 0; i < n; i++ {
		node, _, err := core.OpenNode("", core.NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%02d", i)),
			CacheSize:     cacheSize,
			BloomExpected: expected,
		}, false)
		if err != nil {
			closeBackends(backends)
			return nil, err
		}
		backends = append(backends, node)
	}
	return core.NewCluster(core.ClusterConfig{}, backends...)
}

func closeBackends(backends []core.Backend) {
	for _, b := range backends {
		b.Close()
	}
}

// tcpCluster is a cluster whose nodes are real TCP servers on loopback,
// reproducing the paper's testbed topology in one process.
type tcpCluster struct {
	cluster *core.Cluster
	servers []*rpc.Server
	nodes   []*core.Node
}

// buildTCPCluster starts n node servers on loopback and a cluster of RPC
// clients routing to them.
func buildTCPCluster(n, cacheSize, expected, connsPerNode int) (*tcpCluster, error) {
	tc := &tcpCluster{}
	backends := make([]core.Backend, 0, n)
	for i := 0; i < n; i++ {
		id := ring.NodeID(fmt.Sprintf("node-%02d", i))
		node, _, err := core.OpenNode("", core.NodeConfig{
			ID:            id,
			CacheSize:     cacheSize,
			BloomExpected: expected,
		}, false)
		if err != nil {
			tc.Close()
			return nil, err
		}
		tc.nodes = append(tc.nodes, node)
		srv := rpc.NewServer(node, rpc.ServerConfig{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			tc.Close()
			return nil, err
		}
		tc.servers = append(tc.servers, srv)
		client, err := rpc.Dial(id, addr.String(), rpc.ClientConfig{Conns: connsPerNode})
		if err != nil {
			tc.Close()
			return nil, err
		}
		backends = append(backends, client)
	}
	cluster, err := core.NewCluster(core.ClusterConfig{}, backends...)
	if err != nil {
		tc.Close()
		return nil, err
	}
	tc.cluster = cluster
	return tc, nil
}

func (tc *tcpCluster) Close() {
	if tc.cluster != nil {
		tc.cluster.Close() // closes the rpc clients
	}
	for _, s := range tc.servers {
		s.Close()
	}
	for _, n := range tc.nodes {
		n.Close()
	}
}

// mixedWorkload generates the evaluation's "4 mixed workloads" stream at
// the given scale, block-interleaved to preserve per-stream locality.
func mixedWorkload(scale, blockSize int) *trace.Interleave {
	gens := make([]*trace.Generator, 0, 4)
	for _, spec := range trace.PaperWorkloads() {
		gens = append(gens, trace.NewGenerator(spec.Scaled(scale)))
	}
	return trace.NewInterleave(blockSize, gens...)
}

// drainInterleave collects up to limit fingerprints from the stream
// (limit <= 0 drains everything).
func drainInterleave(it *trace.Interleave, limit int) []fingerprint.Fingerprint {
	n := it.Remaining()
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]fingerprint.Fingerprint, 0, n)
	for len(out) < n {
		fp, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, fp)
	}
	return out
}

// runClients splits fps across `clients` goroutines, each submitting
// batches of batchSize to the cluster, and returns the wall-clock elapsed
// time — the Figure 5 measurement loop ("two separate clients ... each
// client holds a buffer to aggregate hash queries").
func runClients(cluster *core.Cluster, fps []fingerprint.Fingerprint, clients, batchSize int) (time.Duration, error) {
	if clients <= 0 {
		clients = 1
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	share := (len(fps) + clients - 1) / clients
	start := time.Now()
	for c := 0; c < clients; c++ {
		lo := c * share
		hi := lo + share
		if lo >= len(fps) {
			break
		}
		if hi > len(fps) {
			hi = len(fps)
		}
		wg.Add(1)
		go func(stream []fingerprint.Fingerprint) {
			defer wg.Done()
			pairs := make([]core.Pair, 0, batchSize)
			flush := func() error {
				if len(pairs) == 0 {
					return nil
				}
				_, err := cluster.BatchLookupOrInsert(context.Background(), pairs)
				pairs = pairs[:0]
				return err
			}
			for i, fp := range stream {
				pairs = append(pairs, core.Pair{FP: fp, Val: core.Value(i + 1)})
				if len(pairs) >= batchSize {
					if err := flush(); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
			}
			if err := flush(); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(fps[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	return elapsed, firstErr
}

// table renders aligned text tables for reports.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
