// Dedupworkloads: replay the paper's Table I workloads (scaled) through an
// SHHC cluster, reporting the deduplication each achieves and how evenly
// the fingerprints spread across nodes — a miniature of the paper's whole
// evaluation section.
//
//	go run ./examples/dedupworkloads [-scale 64]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"shhc"
)

func main() {
	scale := flag.Int("scale", 64, "workload scale divisor (1 = full paper scale)")
	flag.Parse()
	if err := run(*scale); err != nil {
		log.Fatal(err)
	}
}

func run(scale int) error {
	fmt.Printf("Table I workloads at 1/%d scale through a 4-node cluster\n\n", scale)
	fmt.Printf("%-22s %12s %10s %10s %10s\n", "workload", "fingerprints", "duplicates", "paper", "measured")

	for _, spec := range shhc.PaperWorkloads() {
		scaled := spec.Scaled(scale)

		// Cold cluster per workload, as in the paper's runs.
		cluster, err := shhc.NewLocalCluster(shhc.ClusterOptions{Nodes: 4})
		if err != nil {
			return err
		}

		gen := shhc.NewWorkload(scaled)
		var total, dups int
		pairs := make([]shhc.Pair, 0, 2048)
		flush := func() error {
			if len(pairs) == 0 {
				return nil
			}
			results, err := cluster.BatchLookupOrInsert(context.Background(), pairs)
			if err != nil {
				return err
			}
			for _, r := range results {
				if r.Exists {
					dups++
				}
			}
			pairs = pairs[:0]
			return nil
		}
		for {
			fp, ok := gen.Next()
			if !ok {
				break
			}
			total++
			pairs = append(pairs, shhc.Pair{FP: fp, Val: shhc.Value(total)})
			if len(pairs) == cap(pairs) {
				if err := flush(); err != nil {
					cluster.Close()
					return err
				}
			}
		}
		if err := flush(); err != nil {
			cluster.Close()
			return err
		}

		fmt.Printf("%-22s %12d %10d %9.0f%% %9.1f%%\n",
			scaled.Name, total, dups, spec.PctRedundant*100, float64(dups)/float64(total)*100)

		if spec.Name == "Time machine" {
			// Show the Figure 6 load-balance view for the last workload.
			stats, err := cluster.Stats(context.Background())
			if err != nil {
				cluster.Close()
				return err
			}
			sum := 0
			for _, st := range stats {
				sum += st.StoreEntries
			}
			fmt.Printf("\nhash entry distribution after %s (Figure 6 view):\n", scaled.Name)
			for _, st := range stats {
				fmt.Printf("  %-8s %8d entries (%.1f%%)\n",
					st.ID, st.StoreEntries, float64(st.StoreEntries)/float64(sum)*100)
			}
		}
		cluster.Close()
	}
	return nil
}
