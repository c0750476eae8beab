// Backupservice: the paper's full four-tier architecture, end to end, in
// one process — backup clients over HTTP to a web front-end, which batches
// fingerprint queries to hash nodes over SHHC's TCP protocol and forwards
// new chunks to a (simulated) cloud store.
//
// The demo backs the same "machine image" up three times (full, unchanged,
// and 2% churn), printing what deduplication saves in WAN traffic, then
// restores and verifies the last generation.
//
//	go run ./examples/backupservice
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	"shhc"
	"shhc/internal/hashdb"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Tier 3: the hybrid hash cluster (three nodes over TCP). ---
	var servers []*shhc.NodeServer
	var backends []shhc.Backend
	for i := 0; i < 3; i++ {
		id := shhc.NodeID(fmt.Sprintf("node-%02d", i))
		srv, err := shhc.StartNodeServer("127.0.0.1:0", shhc.NodeConfig{
			ID:            id,
			Store:         hashdb.NewMemStore(),
			CacheSize:     1 << 14,
			BloomExpected: 1 << 18,
		})
		if err != nil {
			return err
		}
		servers = append(servers, srv)
		client, err := shhc.DialNode(id, srv.Addr.String())
		if err != nil {
			return err
		}
		backends = append(backends, client)
		fmt.Printf("hash node %s on %s\n", id, srv.Addr)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	cluster, err := shhc.NewCluster(shhc.ClusterConfig{}, backends...)
	if err != nil {
		return err
	}
	defer cluster.Close()

	// --- Tier 4: cloud storage. ---
	cloud := shhc.NewCloudStore()
	defer cloud.Close()

	// --- Tier 2: web front-end. ---
	front, err := shhc.NewFrontend(cluster, cloud)
	if err != nil {
		return err
	}
	addr, err := front.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer front.Close()
	frontURL := "http://" + addr.String()
	fmt.Printf("web front-end on %s\n\n", frontURL)

	// --- Tier 1: the backup client. ---
	client, err := shhc.NewBackupClient(frontURL, 4096)
	if err != nil {
		return err
	}

	// A 4 MiB "machine image".
	image := make([]byte, 4<<20)
	rand.New(rand.NewSource(42)).Read(image)

	report, err := client.Backup(context.Background(), "image-gen1", bytes.NewReader(image))
	if err != nil {
		return err
	}
	fmt.Printf("generation 1 (initial full backup):\n  %s\n", report)

	// Unchanged re-backup: the classic cloud-backup scenario.
	report2, err := client.Backup(context.Background(), "image-gen2", bytes.NewReader(image))
	if err != nil {
		return err
	}
	fmt.Printf("generation 2 (unchanged re-backup):\n  %s\n", report2)

	// 2% churn.
	churned := append([]byte(nil), image...)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		off := rng.Intn(len(churned) - 4096)
		rng.Read(churned[off : off+4096])
	}
	report3, err := client.Backup(context.Background(), "image-gen3", bytes.NewReader(churned))
	if err != nil {
		return err
	}
	fmt.Printf("generation 3 (2%% churn):\n  %s\n", report3)

	// Restore and verify generation 3.
	var restored bytes.Buffer
	if err := client.Restore(context.Background(), report3.Manifest, &restored); err != nil {
		return err
	}
	if !bytes.Equal(restored.Bytes(), churned) {
		return fmt.Errorf("restore verification FAILED")
	}
	fmt.Printf("\nrestore of generation 3 verified: %d bytes intact\n", restored.Len())

	st := cloud.Stats()
	total := report.BytesTotal + report2.BytesTotal + report3.BytesTotal
	fmt.Printf("\ncloud store: %s\n", st)
	fmt.Printf("logical data backed up: %d bytes; stored: %d bytes; WAN bytes saved: %d (%.1f%%)\n",
		total, st.Bytes, total-st.Bytes, float64(total-st.Bytes)/float64(total)*100)
	return nil
}
