// Package backup's tests double as the full-pipeline integration suite:
// client -> web front-end -> hash cluster -> cloud storage, all in-process.
package backup

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"shhc/internal/cloudsim"
	"shhc/internal/core"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
	"shhc/internal/webfront"
)

// pipeline wires up a complete in-process backup service.
type pipeline struct {
	ts     *httptest.Server
	chunks *cloudsim.Store
}

func newPipeline(t *testing.T, nodes int) *pipeline {
	t.Helper()
	backends := make([]core.Backend, nodes)
	for i := range backends {
		node, err := core.NewNode(core.NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("n%d", i)),
			Store:         hashdb.NewMemStore(),
			CacheSize:     512,
			BloomExpected: 100000,
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
	front, err := webfront.New(webfront.Config{Index: cluster, Chunks: chunks})
	if err != nil {
		t.Fatalf("webfront.New: %v", err)
	}
	ts := httptest.NewServer(front.Handler())
	t.Cleanup(func() {
		ts.Close()
		cluster.Close()
		chunks.Close()
	})
	return &pipeline{ts: ts, chunks: chunks}
}

func newClient(t *testing.T, p *pipeline, chunkSize int) *Client {
	t.Helper()
	c, err := New(Config{FrontURL: p.ts.URL, ChunkSize: chunkSize, PlanBatch: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func randomBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, n)
	rng.Read(buf)
	return buf
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without FrontURL accepted")
	}
	c, err := New(Config{FrontURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if c.http.Timeout != 60*time.Second || c.cfg.PlanBatch != 2048 {
		t.Fatalf("request timeout %v, plan batch %d; want 1m and 2048", c.http.Timeout, c.cfg.PlanBatch)
	}
}

func TestFirstBackupUploadsEverything(t *testing.T) {
	p := newPipeline(t, 2)
	client := newClient(t, p, 4096)
	data := randomBytes(100*4096, 1)

	report, err := client.Backup(context.Background(), "first", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Backup: %v", err)
	}
	if report.Chunks != 100 || report.NewChunks != 100 || report.DupChunks != 0 {
		t.Fatalf("report = %+v, want 100 all-new chunks", report)
	}
	if report.BytesUploaded != int64(len(data)) {
		t.Fatalf("BytesUploaded = %d, want %d", report.BytesUploaded, len(data))
	}
	if st := p.chunks.Stats(); st.Objects != 100 || st.RedundantPuts != 0 {
		t.Fatalf("store stats = %+v, want 100 objects, 0 redundant", st)
	}
}

func TestRepeatBackupUploadsNothing(t *testing.T) {
	// The cloud-backup money shot: a full re-backup of unchanged data
	// moves zero chunk bytes over the WAN.
	p := newPipeline(t, 3)
	client := newClient(t, p, 4096)
	data := randomBytes(64*4096, 2)

	if _, err := client.Backup(context.Background(), "gen-1", bytes.NewReader(data)); err != nil {
		t.Fatalf("first Backup: %v", err)
	}
	report, err := client.Backup(context.Background(), "gen-2", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("second Backup: %v", err)
	}
	if report.NewChunks != 0 || report.BytesUploaded != 0 {
		t.Fatalf("re-backup uploaded %d chunks / %d bytes, want 0/0", report.NewChunks, report.BytesUploaded)
	}
	if got := report.DedupRatio(); got != 1.0 {
		t.Fatalf("DedupRatio = %v, want 1.0", got)
	}
	if st := p.chunks.Stats(); st.RedundantPuts != 0 {
		t.Fatalf("store saw %d redundant uploads; dedup failed upstream", st.RedundantPuts)
	}
}

func TestIncrementalBackup(t *testing.T) {
	p := newPipeline(t, 2)
	client := newClient(t, p, 4096)
	gen1 := randomBytes(50*4096, 3)

	if _, err := client.Backup(context.Background(), "gen-1", bytes.NewReader(gen1)); err != nil {
		t.Fatalf("Backup gen-1: %v", err)
	}
	// Change 5 chunks, keep 45.
	gen2 := append([]byte(nil), gen1...)
	copy(gen2[10*4096:15*4096], randomBytes(5*4096, 4))

	report, err := client.Backup(context.Background(), "gen-2", bytes.NewReader(gen2))
	if err != nil {
		t.Fatalf("Backup gen-2: %v", err)
	}
	if report.NewChunks != 5 || report.DupChunks != 45 {
		t.Fatalf("report = %+v, want 5 new / 45 dup", report)
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	p := newPipeline(t, 2)
	client := newClient(t, p, 4096)
	data := randomBytes(37*4096+123, 5) // non-aligned tail chunk

	report, err := client.Backup(context.Background(), "restore-me", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Backup: %v", err)
	}
	var out bytes.Buffer
	if err := client.Restore(context.Background(), report.Manifest, &out); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restored bytes differ from original")
	}
}

func TestRestoreWithContentDefinedChunking(t *testing.T) {
	p := newPipeline(t, 2)
	client := newClient(t, p, 0) // gear chunking
	data := randomBytes(300000, 6)

	report, err := client.Backup(context.Background(), "gear", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Backup: %v", err)
	}
	var out bytes.Buffer
	if err := client.Restore(context.Background(), report.Manifest, &out); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restored bytes differ from original")
	}
}

func TestCrossClientDedup(t *testing.T) {
	// Two clients with identical data: the second client's backup is
	// fully deduplicated against the first's — the data-center-wide
	// dedup the paper targets.
	p := newPipeline(t, 4)
	data := randomBytes(40*4096, 7)

	c1 := newClient(t, p, 4096)
	if _, err := c1.Backup(context.Background(), "client-1", bytes.NewReader(data)); err != nil {
		t.Fatalf("client-1 Backup: %v", err)
	}
	c2 := newClient(t, p, 4096)
	report, err := c2.Backup(context.Background(), "client-2", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("client-2 Backup: %v", err)
	}
	if report.NewChunks != 0 {
		t.Fatalf("client-2 uploaded %d chunks, want 0 (cross-client dedup)", report.NewChunks)
	}
}

func TestManifestSaveLoad(t *testing.T) {
	m := Manifest{Name: "x", Chunks: []string{"aa", "bb"}, Bytes: 42}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := SaveManifest(m, path); err != nil {
		t.Fatalf("SaveManifest: %v", err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	if got.Name != m.Name || got.Bytes != m.Bytes || len(got.Chunks) != 2 {
		t.Fatalf("loaded manifest = %+v, want %+v", got, m)
	}
}

func TestBackupFile(t *testing.T) {
	p := newPipeline(t, 2)
	client := newClient(t, p, 4096)
	path := filepath.Join(t.TempDir(), "data.bin")
	data := randomBytes(10*4096, 8)
	if err := osWriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	report, err := client.BackupFile(context.Background(), path)
	if err != nil {
		t.Fatalf("BackupFile: %v", err)
	}
	if report.Chunks != 10 {
		t.Fatalf("Chunks = %d, want 10", report.Chunks)
	}
}

func TestEmptyStream(t *testing.T) {
	p := newPipeline(t, 1)
	client := newClient(t, p, 4096)
	report, err := client.Backup(context.Background(), "empty", bytes.NewReader(nil))
	if err != nil {
		t.Fatalf("Backup of empty stream: %v", err)
	}
	if report.Chunks != 0 || report.BytesUploaded != 0 {
		t.Fatalf("report = %+v, want zero work", report)
	}
}
