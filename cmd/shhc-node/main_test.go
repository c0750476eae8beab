package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"shhc/internal/configdoc"
	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/metrics"
)

// TestScrapeNodeEndpoints scrapes a node's HTTP side over an on-disk table:
// every core.NodeStats and hashdb.Stats leaf is one sample of /metrics,
// /healthz and /readyz answer 200 while the node serves, and /readyz 503
// once it stops.
func TestScrapeNodeEndpoints(t *testing.T) {
	db, err := hashdb.Create(filepath.Join(t.TempDir(), "n.shdb"), hashdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewNode(core.NodeConfig{ID: "n0", Store: db})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.LookupOrInsert(context.Background(), fingerprint.FromUint64(1), 1); err != nil {
		t.Fatal(err)
	}
	var serving atomic.Bool
	serving.Store(true)
	mux := observe(node, db, &serving)
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d %s", code, body)
	}
	counts := metrics.SampleCounts(body)
	for prefix, v := range map[string]any{"shhc_node": core.NodeStats{}, "shhc_hashdb": hashdb.Stats{}} {
		for _, f := range metrics.Fields(v) {
			if n := counts[metrics.PromName(prefix, f.Name)]; n != 1 {
				t.Errorf("%s: %d samples of %s, want 1", prefix, n, f.Name)
			}
		}
	}
	if counts["shhc_hashdb_chain_hist__0"] != 1 || counts["shhc_hashdb_checksum_bytes"] != 1 {
		t.Fatalf("no chain histogram or checksum counter in:\n%s", body)
	}
	for _, path := range []string{"/healthz", "/readyz", "/debug/pprof/"} {
		if code, _ := get(path); code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, code)
		}
	}
	serving.Store(false)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz once the node stops serving = %d, want 503", code)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsAndTheirDocs parses the command line without serving: the flags
// and defaults are the Configuration table's shhc-node rows, and every
// `shhc-node -flag` that README.md, docs/ARCHITECTURE.md and the command's
// doc comment write is one of them.
func TestFlagsAndTheirDocs(t *testing.T) {
	var o options
	fs := flags(&o, io.Discard)
	configdoc.CheckFlags(t, "../..", fs)
	if err := fs.Parse([]string{"-id", "n7", "-write-back", "-cache", "4096"}); err != nil {
		t.Fatal(err)
	}
	if o.id != "n7" || !o.wb || o.cache != 4096 || o.addr != "127.0.0.1:7001" {
		t.Errorf("parsed %+v", o)
	}
	if err := flags(new(options), io.Discard).Parse([]string{"-device", "ssd"}); err == nil {
		t.Error("an unknown flag parsed")
	}
}
