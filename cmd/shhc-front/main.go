// Command shhc-front runs the web front-end tier: the HTTP service backup
// clients talk to. It pools small plans from many clients into shared
// batches, routes fingerprint batches to hash nodes (remote shhc-node
// processes, or an embedded local cluster for single-machine use) and
// forwards new chunks to the (simulated) cloud store.
//
// Examples:
//
//	shhc-front -addr :8080 -nodes node-00=127.0.0.1:7001,node-01=127.0.0.1:7002
//	shhc-front -addr :8080 -local 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"shhc"
	"shhc/internal/cloudsim"
	"shhc/internal/webfront"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shhc-front:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		nodes    = flag.String("nodes", "", "comma-separated id=host:port remote hash nodes")
		local    = flag.Int("local", 0, "run an embedded local cluster of this many nodes instead")
		replicas = flag.Int("replicas", 1, "replicas per fingerprint (fault tolerance)")
		quorum   = flag.Int("quorum", 0, "write quorum when replicas > 1 (0 = majority)")
		antiGap  = flag.Duration("anti-entropy", 0, "anti-entropy sweep interval when replicas > 1 (0 = only on membership changes)")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the front-end mux")
		rpcConns = flag.Int("rpc-conns", 0, "TCP connections per remote hash node (0 = default 2; streams multiplex over them)")
		rpcStrms = flag.Int("rpc-streams", 0, "logical streams per node connection for plain calls (0 = default 4)")
		rpcWin   = flag.Int("rpc-window", 0, "per-stream send-credit window in bytes (0 = default 256KiB)")
	)
	flag.Parse()

	transport := shhc.TransportOptions{Conns: *rpcConns, StreamsPerConn: *rpcStrms, Window: *rpcWin}
	cluster, err := buildCluster(*nodes, *local, *replicas, *quorum, *antiGap, transport)
	if err != nil {
		return err
	}
	defer cluster.Close()

	chunks := cloudsim.New(cloudsim.Config{})
	defer chunks.Close()

	// Plans of fewer than 64 fingerprints are pooled across clients
	// (§III.A; the end-to-end benchmark's value): an idle front pays nothing
	// for it, a busy one batches what arrives during each round trip.
	// /v1/stats "aggregation" shows it working.
	front, err := webfront.New(webfront.Config{
		Index: cluster, Chunks: chunks, AggregateBelow: 64,
		EnablePprof: *pprofOn, Logger: log.Default(),
	})
	if err != nil {
		return err
	}
	bound, err := front.Listen(*addr)
	if err != nil {
		return err
	}
	log.Printf("front-end serving on http://%s (cluster size %d, replicas %d)", bound, cluster.Size(), *replicas)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	return front.Close()
}

func buildCluster(nodes string, local, replicas, quorum int, antiGap time.Duration, transport shhc.TransportOptions) (*shhc.Cluster, error) {
	if nodes != "" && local > 0 {
		return nil, fmt.Errorf("use either -nodes or -local, not both")
	}
	if nodes == "" && local <= 0 {
		local = 4
	}
	if local > 0 {
		return shhc.NewLocalCluster(shhc.ClusterOptions{
			Nodes:               local,
			Replicas:            replicas,
			WriteQuorum:         quorum,
			AntiEntropyInterval: antiGap,
		})
	}

	var backends []shhc.Backend
	for _, entry := range strings.Split(nodes, ",") {
		id, hostport, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("bad -nodes entry %q (want id=host:port)", entry)
		}
		client, err := shhc.DialNodeTransport(shhc.NodeID(id), hostport, transport)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", entry, err)
		}
		backends = append(backends, client)
	}
	return shhc.NewCluster(shhc.ClusterConfig{
		Replicas:            replicas,
		WriteQuorum:         quorum,
		AntiEntropyInterval: antiGap,
	}, backends...)
}
