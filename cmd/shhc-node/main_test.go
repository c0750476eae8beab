package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"shhc/internal/configdoc"
	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/metrics"
	"shhc/internal/rpc"
)

// TestScrapeNodeEndpoints scrapes a node's HTTP side over an on-disk table:
// every core.NodeStats and hashdb.Stats leaf is one sample of /metrics,
// /healthz and /readyz answer 200 while the node serves, and /readyz 503
// once it stops.
func TestScrapeNodeEndpoints(t *testing.T) {
	node, db, err := core.OpenNode(t.TempDir(), core.NodeConfig{ID: "n0"}, false)
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

// TestRunRestartsOnItsDir serves a write-back node over a directory with
// -addr 127.0.0.1:0, inserts over rpc, cancels it, and runs it again on the
// same directory: every fingerprint the first run acknowledged is there,
// with its value. The direct backend falls back to buffered I/O where the
// filesystem refuses O_DIRECT.
func TestRunRestartsOnItsDir(t *testing.T) {
	for _, backend := range []string{"buffered", "direct"} {
		t.Run(backend, func(t *testing.T) {
			args := []string{"-id", "n1", "-addr", "127.0.0.1:0", "-dir", t.TempDir(),
				"-write-back", "-cache", "256", "-backend", backend}
			pairs := make([]core.Pair, 3000)
			for i := range pairs {
				pairs[i] = core.Pair{FP: fingerprint.FromUint64(uint64(i)), Val: core.Value(i + 1)}
			}
			for round := 0; round < 2; round++ {
				client, stop := serve(t, args)
				for i := 0; i < len(pairs); i += 500 {
					res, err := client.BatchLookupOrInsert(context.Background(), pairs[i:i+500])
					if err != nil {
						t.Fatal(err)
					}
					for j, r := range res {
						if r.Exists != (round == 1) || (round == 1 && r.Value != pairs[i+j].Val) {
							t.Fatalf("round %d, pair %d: %+v", round, i+j, r)
						}
					}
				}
				client.Close()
				stop()
			}
		})
	}
}

// serve runs the command over args until the returned stop, which fails the
// test if run does, and dials the address it prints.
func serve(t *testing.T, args []string) (*rpc.Client, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	out, w := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, w); w.Close() }()
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("run printed no address: %v (run: %v)", err, <-done)
	}
	go io.Copy(io.Discard, out)
	fields := strings.Fields(line)
	client, err := rpc.Dial("n1", fields[len(fields)-1], rpc.ClientConfig{})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	return client, func() {
		t.Helper()
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("run: %v", err)
		}
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
