// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table/figure, and the front tier's request path (BenchmarkPlanPath).
//
//	go test -bench=. -benchmem
//
// Shape expectations:
//   - Figure1: execution time decreases with cluster size at saturating
//     rates and converges to the arrival window below saturation.
//   - Table1: measured redundancy/distance match the paper's trace stats.
//   - Figure5: batched throughput is roughly an order of magnitude above
//     unbatched and scales with node count.
//   - Figure6: each of 4 nodes stores ~25% of hash entries.
package shhc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"shhc/internal/bench"
	"shhc/internal/cloudsim"
	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
	"shhc/internal/trace"
	"shhc/internal/webfront"
)

// BenchmarkFigure1 runs the Figure 1 simulator at the paper's operating
// points: 100k requests, rates 10k..100k, nodes 1..16. Each iteration is
// one full sweep cell.
func BenchmarkFigure1(b *testing.B) {
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		for _, rate := range []float64{20000, 100000} {
			b.Run(fmt.Sprintf("nodes=%d/rate=%.0f", nodes, rate), func(b *testing.B) {
				var lastExec int64
				for i := 0; i < b.N; i++ {
					points, err := bench.RunFigure1(bench.Figure1Config{
						Requests:   100000,
						Rates:      []float64{rate},
						NodeCounts: []int{nodes},
						Seed:       int64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
					lastExec = points[0].Result.ExecutionTime.Microseconds()
				}
				b.ReportMetric(float64(lastExec), "sim_exec_us")
			})
		}
	}
}

// BenchmarkTable1 generates and re-measures each Table I workload at 1/64
// scale. The reported metrics are the workload statistics themselves.
func BenchmarkTable1(b *testing.B) {
	for _, spec := range trace.PaperWorkloads() {
		spec := spec.Scaled(64)
		b.Run(spec.Name, func(b *testing.B) {
			var st trace.Stats
			for i := 0; i < b.N; i++ {
				g := trace.NewGenerator(spec)
				an := trace.NewAnalyzer(spec.Name)
				for {
					fp, ok := g.Next()
					if !ok {
						break
					}
					an.Observe(fp)
				}
				st = an.Stats()
			}
			b.ReportMetric(st.PctRedundant*100, "pct_redundant")
			b.ReportMetric(st.MeanDistance, "mean_distance")
			b.ReportMetric(float64(st.Fingerprints)/b.Elapsed().Seconds()*float64(b.N), "fp/s")
		})
	}
}

// BenchmarkFigure5 measures cluster throughput per (nodes, batch) cell over
// real loopback TCP with two concurrent clients, each iteration against a
// cold cluster (as in the paper).
func BenchmarkFigure5(b *testing.B) {
	for _, nodes := range []int{1, 2, 3, 4} {
		for _, batch := range []int{1, 128, 2048} {
			b.Run(fmt.Sprintf("nodes=%d/batch=%d", nodes, batch), func(b *testing.B) {
				fingerprints := 30000
				if batch == 1 {
					fingerprints = 6000 // per-RPC mode is ~30x slower
				}
				var throughput float64
				for i := 0; i < b.N; i++ {
					points, err := bench.RunFigure5(bench.Figure5Config{
						NodeCounts:   []int{nodes},
						BatchSizes:   []int{batch},
						Fingerprints: fingerprints,
						Scale:        64,
						UseTCP:       true,
					})
					if err != nil {
						b.Fatal(err)
					}
					throughput = points[0].Throughput
				}
				b.ReportMetric(throughput, "chunks/s")
			})
		}
	}
}

// BenchmarkFigure6 inserts the mixed workloads into a 4-node cluster and
// reports the worst node's deviation from the ideal 25% share.
func BenchmarkFigure6(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		points, err := bench.RunFigure6(bench.Figure6Config{Nodes: 4, Scale: 128})
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range points {
			dev := p.Share - 0.25
			if dev < 0 {
				dev = -dev
			}
			if dev > worst {
				worst = dev
			}
		}
	}
	b.ReportMetric(worst*100, "worst_dev_pct")
}

// BenchmarkPlanPath drives the front tier's whole request path in process:
// the /v1/plan handler, the cluster router and two nodes, one 2 048-
// fingerprint plan of cache hits per iteration — the incremental backup of
// the end-to-end benchmark's incr_hot, without the sockets. allocs/op is per
// plan and must not depend on the plan's size.
func BenchmarkPlanPath(b *testing.B) {
	const planSize = 2048
	backends := make([]core.Backend, 2)
	for i := range backends {
		n, err := core.NewNode(core.NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%02d", i)),
			Store:         hashdb.NewMemStore(),
			CacheSize:     1 << 13,
			BloomExpected: 1 << 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		backends[i] = n
	}
	cluster, err := core.NewCluster(core.ClusterConfig{}, backends...)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	chunks := cloudsim.New(cloudsim.Config{})
	defer chunks.Close()
	front, err := webfront.New(webfront.Config{Index: cluster, Chunks: chunks})
	if err != nil {
		b.Fatal(err)
	}
	fps := make([]string, planSize)
	for i := range fps {
		fps[i] = fingerprint.FromUint64(uint64(i)).String()
	}
	body, err := json.Marshal(webfront.PlanRequest{Fingerprints: fps})
	if err != nil {
		b.Fatal(err)
	}
	handler := front.Handler()
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		return w
	}
	if w := post(); w.Code != http.StatusOK { // first sight inserts
		b.Fatalf("seed plan: status %d: %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := post(); w.Body.String() != "{\"missing\":[]}\n" {
			b.Fatalf("plan: status %d: %.100s", w.Code, w.Body)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/planSize, "ns/fp")
}
