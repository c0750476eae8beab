package shhc_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"shhc"
	"shhc/internal/device"
	"shhc/internal/hashdb"
)

// ExampleNewLocalCluster is the package quickstart: an in-process cluster
// of hybrid hash nodes deduplicating chunks through the Figure 4 flow.
func ExampleNewLocalCluster() {
	cluster, err := shhc.NewLocalCluster(shhc.ClusterOptions{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	chunk := []byte("the quick brown fox")
	res, err := cluster.LookupOrInsert(context.Background(), shhc.FingerprintOf(chunk), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("first sight, upload needed:", !res.Exists)

	res, err = cluster.LookupOrInsert(context.Background(), shhc.FingerprintOf(chunk), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("second sight, duplicate:", res.Exists, "locator:", res.Value)
	// Output:
	// first sight, upload needed: true
	// second sight, duplicate: true locator: 1
}

// ExampleCluster_LookupOrInsert shows the per-fingerprint dedup decision,
// the node the ring routes it to, and which tier of that hybrid node
// answered each query.
func ExampleCluster_LookupOrInsert() {
	cluster, err := shhc.NewLocalCluster(shhc.ClusterOptions{Nodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	fp := shhc.FingerprintOf([]byte("a 4KB chunk of a backup stream"))

	// New fingerprint: the Bloom filter proves it absent without an SSD
	// read, and the node stores it.
	r1, err := cluster.LookupOrInsert(context.Background(), fp, 42)
	if err != nil {
		log.Fatal(err)
	}
	owner, err := cluster.Owner(fp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exists=%v source=%s owner=%s\n", r1.Exists, r1.Source, owner)

	// Same fingerprint again: answered from the RAM LRU cache.
	r2, err := cluster.LookupOrInsert(context.Background(), fp, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exists=%v source=%s value=%d\n", r2.Exists, r2.Source, r2.Value)
	// Output:
	// exists=false source=bloom owner=node-01
	// exists=true source=cache value=42
}

// ExampleCluster_Lookup_deadline bounds a request with a context deadline.
// A lookup is a batch of one, and a deadline acts between device
// operations: a read already issued completes (one lookup behind one slow
// read returns its answer, late), the next is never issued. So the example
// stores 64 fingerprints on a node whose store sits behind a modeled hard
// disk — a 6 ms seek a read, sixteen at a time, really slept — then asks for
// them again and gets context.DeadlineExceeded back during the first seeks,
// not after all 64. The same context would also propagate over the wire to
// remote nodes.
func ExampleCluster_Lookup_deadline() {
	hdd := device.Model{Name: "hdd", ReadBase: 6 * time.Millisecond, WriteBase: 6 * time.Millisecond}
	node, err := shhc.NewNodeForScaling(shhc.NodeConfig{
		ID:        "node-00",
		Store:     device.Slow(hashdb.NewMemStore(), hdd),
		CacheSize: 1, // 0 would select the default; one entry sends reads to the device
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := shhc.NewCluster(shhc.ClusterConfig{}, node)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	pairs := make([]shhc.Pair, 64)
	for i := range pairs {
		pairs[i] = shhc.Pair{FP: shhc.FingerprintOf([]byte{byte(i)}), Val: shhc.Value(i)}
	}
	// Stored fingerprints pass the Bloom filter, so asking again reads the
	// device.
	if _, err := cluster.BatchLookupOrInsert(context.Background(), pairs); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err = cluster.BatchLookupOrInsert(ctx, pairs)
	fmt.Println("deadline bounded the slow device:", errors.Is(err, context.DeadlineExceeded))
	// Output:
	// deadline bounded the slow device: true
}

// ExampleNewBackupClient assembles the paper's four tiers in one process —
// backup client → web front-end → hash cluster → cloud store — and backs
// the same data up twice to show deduplication end to end.
func ExampleNewBackupClient() {
	cluster, err := shhc.NewLocalCluster(shhc.ClusterOptions{Nodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	cloud := shhc.NewCloudStore()
	defer cloud.Close()

	front, err := shhc.NewFrontend(cluster, cloud)
	if err != nil {
		log.Fatal(err)
	}
	addr, err := front.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()

	client, err := shhc.NewBackupClient("http://"+addr.String(), 4096)
	if err != nil {
		log.Fatal(err)
	}

	// A deterministic 64 KiB "file": sixteen 4 KiB chunks.
	file := bytes.Repeat([]byte("0123456789abcdef"), 4096)

	gen1, err := client.Backup(context.Background(), "file-gen1", bytes.NewReader(file))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gen1: %d chunks, %d uploaded\n", gen1.Chunks, gen1.NewChunks)

	// Unchanged re-backup: everything deduplicates, nothing is uploaded.
	gen2, err := client.Backup(context.Background(), "file-gen2", bytes.NewReader(file))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gen2: %d chunks, %d uploaded\n", gen2.Chunks, gen2.NewChunks)

	// Restore from the manifest and verify.
	var restored bytes.Buffer
	if err := client.Restore(context.Background(), gen2.Manifest, &restored); err != nil {
		log.Fatal(err)
	}
	fmt.Println("restore intact:", bytes.Equal(restored.Bytes(), file))
	// Output:
	// gen1: 16 chunks, 1 uploaded
	// gen2: 16 chunks, 0 uploaded
	// restore intact: true
}

// ExampleCluster_JoinNode grows a loaded cluster by a node and shrinks it
// again (the paper's dynamic-scaling future work). Each change copies the
// losing nodes' entries ahead, fences them at the next routing generation,
// copies what arrived meanwhile, and only then lets the gaining nodes
// answer, so every stored fingerprint stays a duplicate throughout.
func ExampleCluster_JoinNode() {
	ctx := context.Background()
	newNode := func(id string) shhc.Backend {
		b, err := shhc.NewNodeForScaling(shhc.NodeConfig{ID: shhc.NodeID(id), Store: hashdb.NewMemStore(), CacheSize: 1 << 10})
		if err != nil {
			log.Fatal(err)
		}
		return b
	}
	cluster, err := shhc.NewCluster(shhc.ClusterConfig{}, newNode("node-00"), newNode("node-01"), newNode("node-02"))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	const n = 6000
	pairs := make([]shhc.Pair, n)
	for i := range pairs {
		pairs[i] = shhc.Pair{FP: shhc.FingerprintOf([]byte(fmt.Sprintf("chunk-%d", i))), Val: shhc.Value(i + 1)}
	}
	duplicates := func() int {
		rs, err := cluster.BatchLookupOrInsert(ctx, pairs)
		if err != nil {
			log.Fatal(err)
		}
		dups := 0
		for _, r := range rs {
			if r.Exists {
				dups++
			}
		}
		return dups
	}
	fmt.Println("duplicates on first sight:", duplicates())

	join, err := cluster.JoinNode(ctx, newNode("node-03"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node-03 joined: %d entries moved, %d of %d still duplicates\n", join.Moved, duplicates(), n)
	drain, err := cluster.DrainNode(ctx, "node-01")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node-01 drained: %d entries moved, %d of %d still duplicates, %d nodes\n", drain.Moved, duplicates(), n, cluster.Size())
	// Output:
	// duplicates on first sight: 0
	// node-03 joined: 1407 entries moved, 6000 of 6000 still duplicates
	// node-01 drained: 1471 entries moved, 6000 of 6000 still duplicates, 3 nodes
}

// ExamplePaperWorkloads replays the paper's Table I workloads, scaled down
// 1024 times, through a cold four-node cluster each, and reports the
// duplicates found against the redundancy the paper measured.
func ExamplePaperWorkloads() {
	for _, spec := range shhc.PaperWorkloads() {
		spec = spec.Scaled(1024)
		cluster, err := shhc.NewLocalCluster(shhc.ClusterOptions{Nodes: 4})
		if err != nil {
			log.Fatal(err)
		}
		gen := shhc.NewWorkload(spec)
		var pairs []shhc.Pair
		for fp, ok := gen.Next(); ok; fp, ok = gen.Next() {
			pairs = append(pairs, shhc.Pair{FP: fp, Val: shhc.Value(len(pairs) + 1)})
		}
		total, dups := len(pairs), 0
		for len(pairs) > 0 {
			batch := pairs[:min(len(pairs), 2048)]
			pairs = pairs[len(batch):]
			rs, err := cluster.BatchLookupOrInsert(context.Background(), batch)
			if err != nil {
				log.Fatal(err)
			}
			for _, r := range rs {
				if r.Exists {
					dups++
				}
			}
		}
		cluster.Close()
		fmt.Printf("%-21s %5d fingerprints, %4.1f%% duplicates (paper %2.0f%%)\n",
			spec.Name, total, float64(dups)/float64(total)*100, spec.PctRedundant*100)
	}
	// Output:
	// Web Server (1/1024)    2045 fingerprints, 19.8% duplicates (paper 18%)
	// Home Dir (1/1024)      2442 fingerprints, 36.5% duplicates (paper 37%)
	// Mail Server (1/1024)  23556 fingerprints, 84.7% duplicates (paper 85%)
	// Time machine (1/1024) 12838 fingerprints, 12.5% duplicates (paper 17%)
}

// ExampleDialNode runs three hash nodes over TCP with two replicas of every
// fingerprint (the paper's fault-tolerance future work), then stops one
// node: every fingerprint is still a duplicate, answered by its surviving
// replica, so backing the same chunks up again uploads none.
func ExampleDialNode() {
	ctx := context.Background()
	var servers []*shhc.NodeServer
	var backends []shhc.Backend
	for i := range 3 {
		id := shhc.NodeID(fmt.Sprintf("node-%02d", i))
		srv, err := shhc.StartNodeServer("127.0.0.1:0", shhc.NodeConfig{ID: id, Store: hashdb.NewMemStore(), CacheSize: 1 << 12})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
		client, err := shhc.DialNode(id, srv.Addr.String())
		if err != nil {
			log.Fatal(err)
		}
		backends = append(backends, client)
	}
	cluster, err := shhc.NewCluster(shhc.ClusterConfig{Replicas: 2}, backends...)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	const n = 2000
	pairs := make([]shhc.Pair, n)
	for i := range pairs {
		pairs[i] = shhc.Pair{FP: shhc.FingerprintOf([]byte(fmt.Sprintf("chunk-%d", i))), Val: shhc.Value(i + 1)}
	}
	if _, err := cluster.BatchLookupOrInsert(ctx, pairs); err != nil {
		log.Fatal(err)
	}
	servers[1].Close()

	// A call to the stopped node fails over to the next replica.
	rs, err := cluster.BatchLookupOrInsert(ctx, pairs)
	if err != nil {
		log.Fatal(err)
	}
	dups := 0
	for _, r := range rs {
		if r.Exists {
			dups++
		}
	}
	fmt.Printf("node-01 stopped: %d of %d still duplicates\n", dups, n)
	// Output:
	// node-01 stopped: 2000 of 2000 still duplicates
}
