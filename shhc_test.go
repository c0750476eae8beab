package shhc

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"shhc/internal/hashdb"
)

func TestLocalClusterQuickstart(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterOptions{Nodes: 4})
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer cluster.Close()

	chunk := []byte("some chunk of backup data")
	fp := FingerprintOf(chunk)

	res, err := cluster.LookupOrInsert(context.Background(), fp, 1)
	if err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if res.Exists {
		t.Fatal("fresh chunk reported existing")
	}
	res, err = cluster.LookupOrInsert(context.Background(), fp, 1)
	if err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if !res.Exists {
		t.Fatal("duplicate chunk not detected")
	}
}

// TestLocalClusterOnDisk builds a write-back cluster over a directory, closes
// it, and builds it again over the same directory: every fingerprint it
// acknowledged is there, with its value.
func TestLocalClusterOnDisk(t *testing.T) {
	opts := ClusterOptions{Nodes: 2, Dir: t.TempDir(), CacheSize: 256, WriteBack: true}
	fps := make([]Fingerprint, 2000)
	for i := range fps {
		fps[i] = FingerprintOf([]byte(fmt.Sprintf("chunk-%d", i)))
	}
	for round := 0; round < 2; round++ {
		cluster, err := NewLocalCluster(opts)
		if err != nil {
			t.Fatalf("NewLocalCluster, round %d: %v", round, err)
		}
		for i, fp := range fps {
			res, err := cluster.LookupOrInsert(context.Background(), fp, Value(i))
			if err != nil {
				t.Fatalf("LookupOrInsert: %v", err)
			}
			if res.Exists != (round == 1) || (round == 1 && res.Value != Value(i)) {
				t.Fatalf("round %d, fingerprint %d: %+v", round, i, res)
			}
		}
		if err := cluster.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

func TestDistributedClusterAssembly(t *testing.T) {
	var servers []*NodeServer
	var backends []Backend
	for i := 0; i < 2; i++ {
		id := NodeID(fmt.Sprintf("remote-%d", i))
		srv, err := StartNodeServer("127.0.0.1:0", NodeConfig{
			ID:        id,
			Store:     hashdb.CreateMem(nil, hashdb.Options{}),
			CacheSize: 64,
		})
		if err != nil {
			t.Fatalf("StartNodeServer: %v", err)
		}
		servers = append(servers, srv)
		client, err := DialNode(id, srv.Addr.String())
		if err != nil {
			t.Fatalf("DialNode: %v", err)
		}
		backends = append(backends, client)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	cluster, err := NewCluster(ClusterConfig{}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()

	fp := FingerprintOf([]byte("distributed chunk"))
	res, err := cluster.LookupOrInsert(context.Background(), fp, 9)
	if err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if res.Exists {
		t.Fatal("fresh chunk reported existing")
	}
	res, _ = cluster.LookupOrInsert(context.Background(), fp, 9)
	if !res.Exists || res.Value != 9 {
		t.Fatalf("duplicate = %+v, want exists value 9", res)
	}
}

func TestBatcherFacade(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterOptions{Nodes: 2})
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer cluster.Close()
	b := NewBatcher(cluster, 16, 1)
	defer b.Close()

	fp := FingerprintOf([]byte("batched chunk"))
	res, err := b.LookupOrInsert(context.Background(), fp, 5)
	if err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if res.Exists {
		t.Fatal("fresh chunk reported existing")
	}
}

func TestEndToEndFacade(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterOptions{Nodes: 2})
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer cluster.Close()
	store := NewCloudStore()
	defer store.Close()
	front, err := NewFrontend(cluster, store)
	if err != nil {
		t.Fatalf("NewFrontend: %v", err)
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	client, err := NewBackupClient(ts.URL, 4096)
	if err != nil {
		t.Fatalf("NewBackupClient: %v", err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB, repetitive
	report, err := client.Backup(context.Background(), "facade-test", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Backup: %v", err)
	}
	if report.Chunks == 0 {
		t.Fatal("no chunks processed")
	}
	// Highly repetitive data: most chunks identical -> heavy dedup.
	if report.NewChunks >= report.Chunks {
		t.Fatalf("report = %+v, expected intra-stream dedup", report)
	}

	var out bytes.Buffer
	if err := client.Restore(context.Background(), report.Manifest, &out); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore mismatch")
	}
}

func TestPaperWorkloadsExposed(t *testing.T) {
	specs := PaperWorkloads()
	if len(specs) != 4 {
		t.Fatalf("got %d workloads, want 4", len(specs))
	}
	g := NewWorkload(specs[0].Scaled(1024))
	n := 0
	for {
		_, ok := g.Next()
		if !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("scaled workload produced no fingerprints")
	}
}
