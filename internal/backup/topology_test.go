package backup

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"shhc/internal/cloudsim"
	"shhc/internal/core"
	"shhc/internal/hashdb"
	"shhc/internal/lb"
	"shhc/internal/ring"
	"shhc/internal/webfront"
)

// TestFullFigure2Topology stands up the paper's complete architecture:
// backup clients -> HTTP load balancer -> two web front-ends -> one shared
// hash cluster -> one shared cloud store, and verifies data-center-wide
// dedup works through every tier.
func TestFullFigure2Topology(t *testing.T) {
	// Shared hash cluster.
	backends := make([]core.Backend, 3)
	for i := range backends {
		node, err := core.NewNode(core.NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("n%d", i)),
			Store:         hashdb.NewMemStore(),
			CacheSize:     1 << 12,
			BloomExpected: 1 << 16,
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
	defer cluster.Close()

	// Shared cloud store.
	chunks := cloudsim.New(cloudsim.Config{})
	defer chunks.Close()

	// Two web front-ends (the "Web Server" boxes in Figure 2).
	var frontURLs []string
	for i := 0; i < 2; i++ {
		front, err := webfront.New(webfront.Config{Index: cluster, Chunks: chunks})
		if err != nil {
			t.Fatalf("webfront.New: %v", err)
		}
		ts := httptest.NewServer(front.Handler())
		defer ts.Close()
		frontURLs = append(frontURLs, ts.URL)
	}

	// The load balancer (the "HAProxy" box).
	balancer, err := lb.New(lb.Config{
		Backends:       frontURLs,
		HealthInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("lb.New: %v", err)
	}
	defer balancer.Close()
	if !balancer.WaitHealthy(context.Background(), 2*time.Second) {
		t.Fatal("no front-end became healthy")
	}
	lbServer := httptest.NewServer(balancer)
	defer lbServer.Close()

	// Two clients with identical data, hitting the LB concurrently.
	data := make([]byte, 64*4096)
	rand.New(rand.NewSource(5)).Read(data)

	var wg sync.WaitGroup
	reports := make([]Report, 2)
	errs := make([]error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := New(Config{FrontURL: lbServer.URL, ChunkSize: 4096, PlanBatch: 32})
			if err != nil {
				errs[c] = err
				return
			}
			reports[c], errs[c] = client.Backup(context.Background(), fmt.Sprintf("client-%d", c), bytes.NewReader(data))
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	// Data-center-wide dedup: 64 unique chunks stored once, regardless
	// of which front-end each batch hit.
	st := chunks.Stats()
	if st.Objects != 64 {
		t.Fatalf("cloud store holds %d objects, want 64", st.Objects)
	}
	if st.RedundantPuts != 0 {
		t.Fatalf("%d redundant uploads reached the cloud store", st.RedundantPuts)
	}
	totalNew := reports[0].NewChunks + reports[1].NewChunks
	if totalNew != 64 {
		t.Fatalf("clients uploaded %d chunks total, want exactly 64", totalNew)
	}

	// Both front-ends served traffic.
	served := 0
	for _, bst := range balancer.Stats() {
		if bst.Served > 0 {
			served++
		}
	}
	if served != 2 {
		t.Fatalf("only %d/2 front-ends served traffic", served)
	}

	// Restore through the load balancer too.
	client, err := New(Config{FrontURL: lbServer.URL, ChunkSize: 4096})
	if err != nil {
		t.Fatalf("backup.New: %v", err)
	}
	var out bytes.Buffer
	if err := client.Restore(context.Background(), reports[0].Manifest, &out); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restored bytes differ")
	}
}
