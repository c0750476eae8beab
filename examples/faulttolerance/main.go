// Faulttolerance: demonstrate the replication extension (the paper's
// "fault tolerance" future-work item). With Replicas=2, killing a hash
// node loses no duplicate-detection state: lookups fail over to the
// surviving replica.
//
//	go run ./examples/faulttolerance
package main

import (
	"context"
	"fmt"
	"log"

	"shhc"
	"shhc/internal/hashdb"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Three nodes over TCP with 2-way replication.
	var servers []*shhc.NodeServer
	var backends []shhc.Backend
	for i := 0; i < 3; i++ {
		id := shhc.NodeID(fmt.Sprintf("node-%02d", i))
		srv, err := shhc.StartNodeServer("127.0.0.1:0", shhc.NodeConfig{
			ID:            id,
			Store:         hashdb.NewMemStore(),
			CacheSize:     1 << 12,
			BloomExpected: 1 << 16,
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
	}
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}()

	cluster, err := shhc.NewCluster(shhc.ClusterConfig{Replicas: 2}, backends...)
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Store 10k fingerprints.
	const n = 10000
	for i := 0; i < n; i++ {
		fp := shhc.FingerprintOf([]byte(fmt.Sprintf("chunk-%d", i)))
		if _, err := cluster.LookupOrInsert(context.Background(), fp, shhc.Value(i+1)); err != nil {
			return err
		}
	}
	fmt.Printf("stored %d fingerprints across 3 nodes with 2-way replication\n", n)

	// Kill node-01 (hard: close its server and node).
	fmt.Println("killing node-01 ...")
	servers[1].Close()
	servers[1] = nil

	// Every fingerprint must still be recognized.
	lost := 0
	for i := 0; i < n; i++ {
		fp := shhc.FingerprintOf([]byte(fmt.Sprintf("chunk-%d", i)))
		res, err := cluster.Lookup(context.Background(), fp)
		if err != nil || !res.Exists {
			lost++
		}
	}
	if lost > 0 {
		return fmt.Errorf("%d fingerprints lost after node failure", lost)
	}
	fmt.Printf("all %d fingerprints still found after losing a node: failover works\n", n)

	// And re-backing-up the same data uploads nothing.
	reinserted := 0
	for i := 0; i < n; i++ {
		fp := shhc.FingerprintOf([]byte(fmt.Sprintf("chunk-%d", i)))
		res, err := cluster.LookupOrInsert(context.Background(), fp, 0)
		if err != nil {
			return err
		}
		if !res.Exists {
			reinserted++
		}
	}
	fmt.Printf("re-backup after failure: %d chunks re-uploaded (want 0)\n", reinserted)
	return nil
}
