// Dynamicscaling: grow and shrink a live SHHC cluster (the paper's
// "dynamic resource scaling" future-work item). A fourth node joins a
// loaded 3-node cluster and JoinNode hands its share of fingerprints over;
// later DrainNode decommissions a node. Both copy ahead before routing
// flips and remove an entry from its old node only once its new node holds
// it durably, so duplicate detection never blinks.
//
//	go run ./examples/dynamicscaling
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

func newNode(id string) (shhc.Backend, error) {
	return shhc.NewNodeForScaling(shhc.NodeConfig{
		ID:            shhc.NodeID(id),
		Store:         hashdb.NewMemStore(),
		CacheSize:     1 << 12,
		BloomExpected: 1 << 17,
	})
}

func run() error {
	backends := make([]shhc.Backend, 3)
	for i := range backends {
		b, err := newNode(fmt.Sprintf("node-%02d", i))
		if err != nil {
			return err
		}
		backends[i] = b
	}
	cluster, err := shhc.NewCluster(shhc.ClusterConfig{}, backends...)
	if err != nil {
		return err
	}
	defer cluster.Close()

	// Load 60k fingerprints.
	const n = 60000
	for i := 0; i < n; i++ {
		fp := shhc.FingerprintOf([]byte(fmt.Sprintf("chunk-%d", i)))
		if _, err := cluster.LookupOrInsert(context.Background(), fp, shhc.Value(i+1)); err != nil {
			return err
		}
	}
	printDistribution(cluster, "before scaling")

	// Scale up: entries are copied to the new node BEFORE routing flips,
	// then removed from their old nodes.
	extra, err := newNode("node-03")
	if err != nil {
		return err
	}
	stats, err := cluster.JoinNode(context.Background(), extra)
	if err != nil {
		return err
	}
	fmt.Printf("\njoin of node-03: moved %d entries (scanned %d)\n", stats.Moved, stats.Scanned)
	printDistribution(cluster, "after scale-up")

	// Verify dedup survived the migration.
	if err := verifyAllDuplicate(cluster, n); err != nil {
		return err
	}
	fmt.Printf("all %d fingerprints still detected as duplicates after scale-up\n", n)

	// Scale down: drain node-01 gracefully.
	drain, err := cluster.DrainNode(context.Background(), "node-01")
	if err != nil {
		return err
	}
	fmt.Printf("\ndrained node-01: migrated %d entries to survivors\n", drain.Moved)
	printDistribution(cluster, "after scale-down")

	if err := verifyAllDuplicate(cluster, n); err != nil {
		return err
	}
	fmt.Printf("all %d fingerprints still detected as duplicates after decommission\n", n)
	return nil
}

func verifyAllDuplicate(cluster *shhc.Cluster, n int) error {
	for i := 0; i < n; i++ {
		fp := shhc.FingerprintOf([]byte(fmt.Sprintf("chunk-%d", i)))
		res, err := cluster.LookupOrInsert(context.Background(), fp, 0)
		if err != nil {
			return err
		}
		if !res.Exists {
			return fmt.Errorf("fingerprint %d lost during scaling", i)
		}
	}
	return nil
}

func printDistribution(cluster *shhc.Cluster, label string) {
	stats, err := cluster.Stats(context.Background())
	if err != nil {
		log.Printf("stats: %v", err)
		return
	}
	total := 0
	for _, st := range stats {
		total += st.StoreEntries
	}
	fmt.Printf("\nentry distribution %s (%d total):\n", label, total)
	for _, st := range stats {
		fmt.Printf("  %-8s %7d entries (%.1f%%)\n", st.ID, st.StoreEntries,
			float64(st.StoreEntries)/float64(total)*100)
	}
}
