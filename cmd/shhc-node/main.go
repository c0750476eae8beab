// Command shhc-node runs one hybrid hash node and serves it over SHHC's
// TCP protocol. A cluster is a set of these plus a front-end (shhc-front)
// routing to them.
//
// Example:
//
//	shhc-node -id node-00 -addr 127.0.0.1:7001 -dir /data/shhc
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"shhc/internal/core"
	"shhc/internal/hashdb"
	"shhc/internal/metrics"
	"shhc/internal/ring"
	"shhc/internal/rpc"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "shhc-node:", err)
		os.Exit(1)
	}
}

// options is the node's command line.
type options struct {
	id, addr, dir, backend, http string
	cache                        int
	wb                           bool
}

// flags declares the command's flags over o, with their defaults; usage goes
// to out.
func flags(o *options, out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("shhc-node", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.id, "id", "node-00", "node identity on the hash ring")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7001", "listen address (port 0 picks one; the bound address is printed)")
	fs.StringVar(&o.dir, "dir", "", "directory for the node's files, created if missing: <id>.shdb, the hash table, and with -write-back <id>.wal, the destage journal replayed on restart (empty = in memory, no journal)")
	fs.IntVar(&o.cache, "cache", 1<<16, "LRU cache capacity in entries")
	fs.BoolVar(&o.wb, "write-back", false, "acknowledge inserts from RAM and destage them in group-commit waves ahead of eviction")
	fs.StringVar(&o.backend, "backend", "buffered", "hash table I/O backend (-dir only): buffered|direct (direct = O_DIRECT, bypassing the page cache; falls back to buffered where unsupported)")
	fs.StringVar(&o.http, "http", "", "serve /metrics, /healthz, /readyz and net/http/pprof under /debug/pprof/ on this address (e.g. localhost:6060); empty = off")
	return fs
}

// run parses args and serves the node until ctx is done. It prints the
// address it serves on to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	if err := flags(&o, stdout).Parse(args); err != nil {
		return err
	}
	if o.backend != "buffered" && o.backend != "direct" {
		return fmt.Errorf("unknown -backend %q (want buffered or direct)", o.backend)
	}
	node, table, err := core.OpenNode(o.dir, core.NodeConfig{
		ID:        ring.NodeID(o.id),
		CacheSize: o.cache,
		WriteBack: o.wb,
	}, o.backend == "direct")
	if err != nil {
		return err
	}
	log.Printf("node %s: %d entries in its hash table (dir %q, %s)", o.id, table.Len(), o.dir, o.backend)

	var serving atomic.Bool // /readyz: the rpc listener is up and no shutdown has begun
	if o.http != "" {
		hs := &http.Server{Addr: o.http, Handler: observe(node, table, &serving)}
		defer hs.Close()
		go func() {
			log.Printf("metrics on http://%s/metrics, pprof under /debug/pprof/", o.http)
			if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("http server: %v", err)
			}
		}()
	}

	srv := rpc.NewServer(node, rpc.ServerConfig{Logger: log.Default()})
	bound, err := srv.Listen(o.addr)
	if err != nil {
		node.Close()
		return err
	}
	serving.Store(true)
	fmt.Fprintf(stdout, "node %s serving on %s\n", o.id, bound)

	<-ctx.Done()
	serving.Store(false)
	log.Printf("shutting down")
	if err := srv.Close(); err != nil {
		log.Printf("server close: %v", err)
	}
	return node.Close()
}

// observe is the node's HTTP side: /metrics renders core.NodeStats as
// shhc_node_* and the table's hashdb.Stats as shhc_hashdb_*;
// /readyz answers 200 while serving says so; pprof serves under
// /debug/pprof/.
func observe(node *core.Node, table *hashdb.DB, serving *atomic.Bool) *http.ServeMux {
	mux := http.NewServeMux()
	metrics.Serve(mux, func(ctx context.Context, w io.Writer) error {
		st, err := node.Stats(ctx)
		if err != nil {
			return err
		}
		if err := metrics.WritePrometheus(w, "shhc_node", "", nil, []core.NodeStats{st}); err != nil {
			return err
		}
		return metrics.WritePrometheus(w, "shhc_hashdb", "", nil, []hashdb.Stats{table.Stats()})
	}, func(context.Context) error {
		if !serving.Load() {
			return errors.New("not serving")
		}
		return nil
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
