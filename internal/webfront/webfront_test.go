package webfront

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"shhc/internal/batcher"
	"shhc/internal/cloudsim"
	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/metrics"
	"shhc/internal/ring"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, *cloudsim.Store) {
	t.Helper()
	return newTestServerCached(t, 128)
}

// newTestServerCached is newTestServer with cacheSize LRU entries per node.
// Small plans are pooled, as in cmd/shhc-front.
func newTestServerCached(t *testing.T, cacheSize int) (*Server, *httptest.Server, *cloudsim.Store) {
	t.Helper()
	backends := make([]core.Backend, 2)
	for i := range backends {
		node, err := core.NewNode(core.NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("n%d", i)),
			Store:         hashdb.NewMemStore(),
			CacheSize:     cacheSize,
			BloomExpected: 10000,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		backends[i] = node
	}
	cluster, err := core.NewCluster(core.ClusterConfig{}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	chunks := cloudsim.New(cloudsim.Config{})
	srv, err := New(Config{Index: cluster, Chunks: chunks, AggregateBelow: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close() // drains the aggregator; a test may have closed it already
		cluster.Close()
		chunks.Close()
	})
	return srv, ts, chunks
}

// newTestServerWithLimits builds a front-end with explicit plan/chunk
// limits and returns its base URL.
func newTestServerWithLimits(t *testing.T, maxPlan, maxChunk int) string {
	t.Helper()
	node, err := core.NewNode(core.NodeConfig{
		ID:            "lim",
		Store:         hashdb.NewMemStore(),
		CacheSize:     64,
		BloomExpected: 1024,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	cluster, err := core.NewCluster(core.ClusterConfig{}, node)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	chunks := cloudsim.New(cloudsim.Config{})
	cfg := Config{Index: cluster, Chunks: chunks}
	if maxPlan > 0 {
		cfg.maxPlan = maxPlan
	} else {
		cfg.maxPlan = 2
	}
	if maxChunk > 0 {
		cfg.maxChunk = maxChunk
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cluster.Close()
		chunks.Close()
	})
	return ts.URL
}

func postPlan(t *testing.T, url string, fps []string) PlanResponse {
	t.Helper()
	body, _ := json.Marshal(PlanRequest{Fingerprints: fps})
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/plan: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %d", resp.StatusCode)
	}
	var plan PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&plan); err != nil {
		t.Fatalf("decode plan: %v", err)
	}
	return plan
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without Index accepted")
	}
}

func TestPlanMarksNewThenDuplicate(t *testing.T) {
	_, ts, _ := newTestServer(t)

	data := []byte("hello chunk")
	fp := fingerprint.FromData(data).String()

	plan := postPlan(t, ts.URL, []string{fp})
	if len(plan.Missing) != 1 || plan.Missing[0] != 0 {
		t.Fatalf("first plan missing = %v, want [0]", plan.Missing)
	}
	plan = postPlan(t, ts.URL, []string{fp})
	if len(plan.Missing) != 0 {
		t.Fatalf("second plan missing = %v, want []", plan.Missing)
	}
}

func TestPlanRejectsBadFingerprints(t *testing.T) {
	_, ts, _ := newTestServer(t)
	body, _ := json.Marshal(PlanRequest{Fingerprints: []string{"not-hex"}})
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestUploadAndFetchChunk(t *testing.T) {
	_, ts, chunks := newTestServer(t)
	data := []byte("stored chunk bytes")
	fp := fingerprint.FromData(data)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/upload", bytes.NewReader(data))
	req.Header.Set(FingerprintHeader, fp.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, want 201", resp.StatusCode)
	}
	if ok, _ := chunks.Has(fp); !ok {
		t.Fatal("chunk not in store after upload")
	}

	get, err := http.Get(ts.URL + "/v1/chunk/" + fp.String())
	if err != nil {
		t.Fatalf("GET chunk: %v", err)
	}
	defer get.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(get.Body)
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("fetched chunk differs from upload")
	}
}

func TestUploadRejectsCorruptChunk(t *testing.T) {
	_, ts, _ := newTestServer(t)
	data := []byte("real content")
	wrongFP := fingerprint.FromData([]byte("other content"))

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/upload", bytes.NewReader(data))
	req.Header.Set(FingerprintHeader, wrongFP.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
}

func TestChunkNotFound(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/chunk/" + fingerprint.FromUint64(404).String())
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// getStats fetches and decodes /v1/stats.
func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return stats
}

// sum adds counter name across the node objects.
func sum(nodes []map[string]any, name string) float64 {
	var total float64
	for _, n := range nodes {
		total += n[name].(float64)
	}
	return total
}

func TestStatsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	postPlan(t, ts.URL, []string{fingerprint.FromUint64(1).String(), fingerprint.FromUint64(2).String()})

	stats := getStats(t, ts.URL)
	if stats.Plans != 1 || stats.Lookups != 2 {
		t.Fatalf("stats = %+v, want 1 plan / 2 lookups", stats)
	}
	if len(stats.Nodes) != 2 {
		t.Fatalf("got %d nodes, want 2", len(stats.Nodes))
	}
	// The two-fingerprint plan was small enough to be pooled, and went out
	// whole.
	if a := stats.Aggregation; len(a) != 2 || a["queries"] != 2.0 || a["batches"] != 1.0 {
		t.Fatalf("aggregation block = %v, want 2 queries in 1 batch", a)
	}
	// The per-tier latency histograms of the lookup pipeline must travel
	// through the endpoint: the plan above exercised the RAM tiers on at
	// least one node.
	if sum(stats.Nodes, "phases.bloom.count") == 0 {
		t.Fatalf("no node reported bloom phase observations: %v", stats.Nodes)
	}
	if sum(stats.Nodes, "phases.ssd.count") == 0 {
		t.Fatalf("no node reported SSD phase observations (the two inserts were write-through): %v", stats.Nodes)
	}
	// The Bloom-filter capacity block must travel through the endpoint,
	// floats and bools as native JSON values: the two inserts above were
	// added to some node's filter.
	for _, n := range stats.Nodes {
		if n["bloom.slices"] == 0.0 {
			t.Fatalf("node %s reports a filter with no slices: %v", n["id"], n)
		}
		if n["bloom.saturated"] != false {
			t.Fatalf("node %s reports bloom.saturated = %v after two inserts", n["id"], n["bloom.saturated"])
		}
		if _, ok := n["bloom.estimated_fp_rate"].(float64); !ok {
			t.Fatalf("node %s: bloom.estimated_fp_rate = %v, want a number", n["id"], n["bloom.estimated_fp_rate"])
		}
	}
	if got := sum(stats.Nodes, "bloom.entries"); got != 2 {
		t.Fatalf("nodes report %v bloom entries, want 2", got)
	}
	if sum(stats.Nodes, "bloom.size_bytes") == 0 {
		t.Fatal("no node reported bloom filter size")
	}
}

// TestStatsNodesCarryEverySchemaName: each node object holds "id" and
// every core.NodeStats leaf, by the walker's name — so a counter added to
// NodeStats reaches /v1/stats with no edit here.
func TestStatsNodesCarryEverySchemaName(t *testing.T) {
	_, ts, _ := newTestServer(t)
	stats := getStats(t, ts.URL)
	fields := metrics.Fields(core.NodeStats{})
	for _, n := range stats.Nodes {
		if id, _ := n["id"].(string); id == "" {
			t.Fatalf("node object without an id: %v", n)
		}
		for _, f := range fields {
			if _, ok := n[f.Name]; !ok {
				t.Errorf("node %s: %q missing", n["id"], f.Name)
			}
		}
		if len(n) != len(fields)+1 {
			t.Errorf("node %s has %d keys, want id + %d counters", n["id"], len(n), len(fields))
		}
	}
}

// TestStatsSchemasWalk walks the zero value of every struct /v1/stats
// renders: a field of a kind the walker cannot carry panics here, not in a
// running front-end.
func TestStatsSchemasWalk(t *testing.T) {
	for _, v := range []any{core.NodeStats{}, core.ReplicationStats{}, batcher.Stats{}, core.ClientTransportStats{}} {
		if len(metrics.Fields(v)) == 0 {
			t.Errorf("%T has no counters", v)
		}
		for range metrics.Values(v) {
		}
	}
}

// TestStatsReplicationBlock: a replicated cluster surfaces its quorum and
// repair counters at /v1/stats; the default single-copy cluster omits the
// block entirely.
func TestStatsReplicationBlock(t *testing.T) {
	// The default newTestServer cluster has Replicas = 1: no block.
	_, ts, _ := newTestServer(t)
	if stats := getStats(t, ts.URL); stats.Replication != nil {
		t.Fatalf("unreplicated cluster reported a replication block: %v", stats.Replication)
	}

	// A Replicas = 2 cluster reports fanned writes after a plan.
	backends := make([]core.Backend, 2)
	for i := range backends {
		node, err := core.NewNode(core.NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("r%d", i)),
			Store:         hashdb.NewMemStore(),
			CacheSize:     128,
			BloomExpected: 10000,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		backends[i] = node
	}
	cluster, err := core.NewCluster(core.ClusterConfig{Replicas: 2}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	chunks := cloudsim.New(cloudsim.Config{})
	srv, err := New(Config{Index: cluster, Chunks: chunks})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		rts.Close()
		cluster.Close()
		chunks.Close()
	})

	postPlan(t, rts.URL, []string{fingerprint.FromUint64(1).String(), fingerprint.FromUint64(2).String()})
	stats := getStats(t, rts.URL)
	if stats.Replication == nil {
		t.Fatal("replicated cluster reported no replication block")
	}
	if stats.Replication["fanned_writes"] == 0.0 {
		t.Fatalf("replication block shows no fanned writes: %v", stats.Replication)
	}
	// The mirror writes land as repair batches on the receiving nodes.
	if sum(stats.Nodes, "replica.repair_pairs") == 0 {
		t.Fatalf("no node reported absorbed repair pairs: %v", stats.Nodes)
	}
}

func TestMethodEnforcement(t *testing.T) {
	_, ts, _ := newTestServer(t)
	tests := []struct {
		method, path string
	}{
		{method: http.MethodGet, path: "/v1/plan"},
		{method: http.MethodGet, path: "/v1/upload"},
		{method: http.MethodPost, path: "/v1/chunk/" + strings.Repeat("0", 40)},
		{method: http.MethodPost, path: "/v1/stats"},
	}
	for _, tt := range tests {
		req, _ := http.NewRequest(tt.method, ts.URL+tt.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tt.method, tt.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s status = %d, want 405", tt.method, tt.path, resp.StatusCode)
		}
	}
}

// TestScrapeFrontEndpoints scrapes the front-end's /metrics: its own
// counters and the aggregation block once each, and every core.NodeStats
// leaf once per node, labelled with the node's id; /healthz and /readyz
// answer 200.
func TestScrapeFrontEndpoints(t *testing.T) {
	srv, _, _ := newTestServer(t)
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d %s", code, body)
	}
	counts := metrics.SampleCounts(body)
	want := []string{"shhc_front_plans", "shhc_front_lookups", "shhc_front_uploads"}
	for _, f := range metrics.Fields(batcher.Stats{}) {
		want = append(want, metrics.PromName("shhc_front_aggregation", f.Name))
	}
	for _, f := range metrics.Fields(core.NodeStats{}) {
		for _, id := range []string{"n0", "n1"} {
			want = append(want, metrics.PromName("shhc_node", f.Name)+`{node="`+id+`"}`)
		}
	}
	for _, series := range want {
		if counts[series] != 1 {
			t.Errorf("%d samples of %s, want 1", counts[series], series)
		}
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, _ := get(path); code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, code)
		}
	}
}

// TestRequestBounds pins the request bounds: 1 MiB uploads and 1<<20
// fingerprints per plan.
func TestRequestBounds(t *testing.T) {
	srv, _, _ := newTestServer(t)
	if srv.cfg.maxChunk != 1<<20 || srv.cfg.maxPlan != 1<<20 {
		t.Fatalf("chunk bound %d, plan bound %d; want 1 MiB and 1<<20", srv.cfg.maxChunk, srv.cfg.maxPlan)
	}
}
