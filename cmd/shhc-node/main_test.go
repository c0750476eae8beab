package main

import (
	"context"
	"flag"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestFlagsAndTheirDocs parses the command line without serving: exactly
// these flags, with these defaults, and every `shhc-node -flag` that
// README.md, docs/ARCHITECTURE.md and the command's doc comment write is one
// of them.
func TestFlagsAndTheirDocs(t *testing.T) {
	want := map[string]string{
		"id": "node-00", "addr": "127.0.0.1:7001", "dir": "", "cache": "65536",
		"write-back": "false", "destage-batch": "0", "destage-interval": "0s", "destage-queue": "0",
		"journal": "false", "backend": "buffered", "http": "",
	}
	var o options
	fs := flags(&o, io.Discard)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !maps.Equal(got, want) {
		t.Errorf("flags and defaults = %v, want %v", got, want)
	}
	if err := fs.Parse([]string{"-id", "n7", "-write-back", "-destage-interval", "5ms"}); err != nil {
		t.Fatal(err)
	}
	if o.id != "n7" || !o.wb || o.wbIval != 5*time.Millisecond || o.cache != 1<<16 {
		t.Errorf("parsed %+v", o)
	}
	if err := flags(new(options), io.Discard).Parse([]string{"-device", "ssd"}); err == nil {
		t.Error("an unknown flag parsed")
	}

	// A use runs from "shhc-node" to a backtick, the line's end or the next
	// command; each -word in it is a flag.
	use := regexp.MustCompile("shhc-node([^`\\n]*?)(?:`|\\n|shhc-|$)")
	flagRef := regexp.MustCompile(`(?:^|\s)-([a-z][a-z-]*)`)
	for _, doc := range []string{"../../README.md", "../../docs/ARCHITECTURE.md", "main.go"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		if doc == "main.go" {
			src, _, _ = strings.Cut(src, "package main")
		}
		for _, u := range use.FindAllStringSubmatch(src, -1) {
			for _, f := range flagRef.FindAllStringSubmatch(u[1], -1) {
				if _, ok := want[f[1]]; !ok {
					t.Errorf("%s: shhc-node%s names -%s, which is no flag", doc, u[1], f[1])
				}
			}
		}
	}
}
