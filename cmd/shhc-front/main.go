// Command shhc-front runs the web front-end tier: the HTTP service backup
// clients talk to. It pools small plans from many clients into shared
// batches, routes fingerprint batches to hash nodes (remote shhc-node
// processes, or an embedded local cluster for single-machine use) and
// forwards new chunks to the (simulated) cloud store. Given neither -nodes
// nor -local, it runs an embedded cluster of 4 nodes.
//
// Examples:
//
//	shhc-front -addr :8080 -nodes node-00=127.0.0.1:7001,node-01=127.0.0.1:7002
//	shhc-front -addr :8080 -local 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "shhc-front:", err)
		os.Exit(1)
	}
}

// defaultLocal is the embedded cluster's size when neither -nodes nor
// -local is given.
const defaultLocal = 4

// options is the front-end's command line.
type options struct {
	addr, nodes             string
	local, replicas, quorum int
	antiGap                 time.Duration
	pprof                   bool
}

// flags declares the command's flags over o, with their defaults; usage goes
// to out.
func flags(o *options, out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("shhc-front", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	fs.StringVar(&o.nodes, "nodes", "", "comma-separated id=host:port remote hash nodes")
	fs.IntVar(&o.local, "local", 0, fmt.Sprintf("run an embedded local cluster of this many nodes instead of -nodes (0 = %d when -nodes is empty)", defaultLocal))
	fs.IntVar(&o.replicas, "replicas", 1, "replicas per fingerprint (fault tolerance)")
	fs.IntVar(&o.quorum, "quorum", 0, "write quorum when replicas > 1 (0 = majority)")
	fs.DurationVar(&o.antiGap, "anti-entropy", 0, "anti-entropy sweep interval when replicas > 1 (0 = only on membership changes)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the front-end mux")
	return fs
}

// run parses args and serves the front-end until SIGINT or SIGTERM.
func run(args []string, stdout io.Writer) error {
	var o options
	if err := flags(&o, stdout).Parse(args); err != nil {
		return err
	}
	cluster, err := buildCluster(o)
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
		EnablePprof: o.pprof, Logger: log.Default(),
	})
	if err != nil {
		return err
	}
	bound, err := front.Listen(o.addr)
	if err != nil {
		return err
	}
	log.Printf("front-end serving on http://%s (cluster size %d, replicas %d)", bound, cluster.Size(), o.replicas)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	return front.Close()
}

// buildCluster dials o's remote nodes, or starts its embedded ones.
func buildCluster(o options) (*shhc.Cluster, error) {
	if o.nodes != "" && o.local > 0 {
		return nil, fmt.Errorf("use either -nodes or -local, not both")
	}
	if o.nodes == "" && o.local <= 0 {
		o.local = defaultLocal
	}
	if o.local > 0 {
		return shhc.NewLocalCluster(shhc.ClusterOptions{
			Nodes:               o.local,
			Replicas:            o.replicas,
			WriteQuorum:         o.quorum,
			AntiEntropyInterval: o.antiGap,
		})
	}

	var backends []shhc.Backend
	for _, entry := range strings.Split(o.nodes, ",") {
		id, hostport, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("bad -nodes entry %q (want id=host:port)", entry)
		}
		client, err := shhc.DialNode(shhc.NodeID(id), hostport)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", entry, err)
		}
		backends = append(backends, client)
	}
	return shhc.NewCluster(shhc.ClusterConfig{
		Replicas:            o.replicas,
		WriteQuorum:         o.quorum,
		AntiEntropyInterval: o.antiGap,
	}, backends...)
}
