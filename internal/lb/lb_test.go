package lb

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/metrics"
)

// newBackendServer returns a front-end-ish test server that identifies
// itself in responses and counts hits.
func newBackendServer(t *testing.T, name string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/work", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, name)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &hits
}

func newBalancer(t *testing.T, backends ...string) *Balancer {
	t.Helper()
	b, err := New(Config{
		Backends:       backends,
		HealthInterval: 20 * time.Millisecond,
		healthTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	if !b.WaitHealthy(context.Background(), 2*time.Second) {
		t.Fatal("no backend became healthy")
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty backend list accepted")
	}
	if _, err := New(Config{Backends: []string{"not a url at all\x00"}}); err == nil {
		t.Fatal("invalid URL accepted")
	}
	if _, err := New(Config{Backends: []string{"relative/path"}}); err == nil {
		t.Fatal("relative URL accepted")
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	ts1, hits1 := newBackendServer(t, "one")
	ts2, hits2 := newBackendServer(t, "two")
	b := newBalancer(t, ts1.URL, ts2.URL)

	front := httptest.NewServer(b)
	defer front.Close()

	const n = 100
	for i := 0; i < n; i++ {
		resp, err := http.Get(front.URL + "/work")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	h1, h2 := hits1.Load(), hits2.Load()
	if h1+h2 != n {
		t.Fatalf("hits = %d + %d, want %d total", h1, h2, n)
	}
	if h1 < n/4 || h2 < n/4 {
		t.Fatalf("distribution skewed: %d vs %d", h1, h2)
	}
}

func TestFailoverOnUnhealthyBackend(t *testing.T) {
	ts1, hits1 := newBackendServer(t, "one")
	ts2, hits2 := newBackendServer(t, "two")
	b := newBalancer(t, ts1.URL, ts2.URL)
	front := httptest.NewServer(b)
	defer front.Close()

	// Kill backend two and wait for the health checker to notice.
	ts2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		healthy := 0
		for _, st := range b.Stats() {
			if st.Healthy {
				healthy++
			}
		}
		if healthy == 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	before2 := hits2.Load()
	for i := 0; i < 20; i++ {
		resp, err := http.Get(front.URL + "/work")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d after failover", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if hits2.Load() != before2 {
		t.Fatal("dead backend still receiving traffic")
	}
	if hits1.Load() < 20 {
		t.Fatal("surviving backend did not absorb the load")
	}
}

func TestAllBackendsDown(t *testing.T) {
	ts1, _ := newBackendServer(t, "one")
	b := newBalancer(t, ts1.URL)
	front := httptest.NewServer(b)
	defer front.Close()

	ts1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if !b.Stats()[0].Healthy {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(front.URL + "/work")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestStatsSnapshot(t *testing.T) {
	ts1, _ := newBackendServer(t, "one")
	b := newBalancer(t, ts1.URL)
	stats := b.Stats()
	if len(stats) != 1 || stats[0].URL != ts1.URL {
		t.Fatalf("stats = %+v", stats)
	}
	if !stats[0].Healthy {
		t.Fatal("backend not healthy after WaitHealthy")
	}
}

func TestListenServesTraffic(t *testing.T) {
	ts1, _ := newBackendServer(t, "one")
	b := newBalancer(t, ts1.URL)
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	resp, err := http.Get("http://" + addr.String() + "/work")
	if err != nil {
		t.Fatalf("GET via listener: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "one" {
		t.Fatalf("body = %q, want proxied response", body)
	}
}

func TestCloseStopsHealthLoop(t *testing.T) {
	ts1, _ := newBackendServer(t, "one")
	b, err := New(Config{Backends: []string{ts1.URL}, HealthInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close must be idempotent-safe for the health loop (stopOnce).
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestScrapeBalancerEndpoints: the balancer answers /metrics, /healthz and
// /readyz itself instead of proxying them, with each BackendStats leaf once
// per backend, labelled with its URL; /readyz is 503 until a backend is
// healthy.
func TestScrapeBalancerEndpoints(t *testing.T) {
	be1, _ := newBackendServer(t, "a")
	be2, _ := newBackendServer(t, "b")
	b := newBalancer(t, be1.URL, be2.URL)
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		b.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}
	if !b.WaitHealthy(context.Background(), 5*time.Second) {
		t.Fatal("no backend became healthy")
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d %s", code, body)
	}
	counts := metrics.SampleCounts(body)
	for _, f := range metrics.Fields(BackendStats{}) {
		for _, u := range []string{be1.URL, be2.URL} {
			if series := metrics.PromName("shhc_lb", f.Name) + `{backend="` + u + `"}`; counts[series] != 1 {
				t.Errorf("%d samples of %s, want 1", counts[series], series)
			}
		}
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, _ := get(path); code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, code)
		}
	}
	be1.Close()
	be2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for code, _ := get("/readyz"); code != http.StatusServiceUnavailable; code, _ = get("/readyz") {
		if time.Now().After(deadline) {
			t.Fatalf("/readyz with every backend down = %d, want 503", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthProbeConstants pins the health probe: a GET of /v1/stats,
// bounded by 500ms.
func TestHealthProbeConstants(t *testing.T) {
	b, err := New(Config{Backends: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if healthPath != "/v1/stats" || b.client.Timeout != 500*time.Millisecond {
		t.Fatalf("probe %s bounded by %v, want /v1/stats bounded by 500ms", healthPath, b.client.Timeout)
	}
}
