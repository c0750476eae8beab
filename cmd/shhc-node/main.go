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
	"path/filepath"
	"sync/atomic"
	"syscall"

	"shhc/internal/core"
	"shhc/internal/directio"
	"shhc/internal/hashdb"
	"shhc/internal/metrics"
	"shhc/internal/ring"
	"shhc/internal/rpc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "shhc-node:", err)
		os.Exit(1)
	}
}

// options is the node's command line.
type options struct {
	id, addr, dir, backend, http string
	cache                        int
	wb, journal                  bool
}

// flags declares the command's flags over o, with their defaults; usage goes
// to out.
func flags(o *options, out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("shhc-node", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.id, "id", "node-00", "node identity on the hash ring")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7001", "listen address")
	fs.StringVar(&o.dir, "dir", "", "directory for the on-disk hash table (empty = in-memory)")
	fs.IntVar(&o.cache, "cache", 1<<16, "LRU cache capacity in entries")
	fs.BoolVar(&o.wb, "write-back", false, "acknowledge inserts from RAM and destage them in group-commit waves ahead of eviction")
	fs.BoolVar(&o.journal, "journal", false, "durable destage journal (write-back + -dir only): fsync evicted dirty entries to <dir>/<id>.wal before acking and replay the journal on restart")
	fs.StringVar(&o.backend, "backend", "buffered", "hash table I/O backend (-dir only): buffered|direct (direct = O_DIRECT, bypassing the page cache; falls back to buffered where unsupported)")
	fs.StringVar(&o.http, "http", "", "serve /metrics, /healthz, /readyz and net/http/pprof under /debug/pprof/ on this address (e.g. localhost:6060); empty = off")
	return fs
}

// run parses args and serves the node until SIGINT or SIGTERM.
func run(args []string, stdout io.Writer) error {
	var o options
	if err := flags(&o, stdout).Parse(args); err != nil {
		return err
	}
	var (
		store hashdb.Store
		table *hashdb.DB // the on-disk table, nil for the in-memory one
	)
	if o.dir != "" {
		if err := os.MkdirAll(o.dir, 0o755); err != nil {
			return fmt.Errorf("create dir: %w", err)
		}
		path := filepath.Join(o.dir, o.id+".shdb")
		open := func(flag int) (hashdb.File, string, error) {
			switch o.backend {
			case "buffered":
				f, err := os.OpenFile(path, flag, 0o644)
				return f, "buffered", err
			case "direct":
				f, err := directio.Open(path, flag, 0o644, directio.Options{})
				if err != nil {
					return nil, "", err
				}
				kind := "O_DIRECT"
				if !f.Direct() {
					kind = "O_DIRECT unsupported here, buffered fallback"
				}
				return f, kind, nil
			default:
				return nil, "", fmt.Errorf("unknown -backend %q (want buffered or direct)", o.backend)
			}
		}
		if _, statErr := os.Stat(path); statErr == nil {
			f, kind, err := open(os.O_RDWR)
			if err != nil {
				return err
			}
			db, err := hashdb.OpenFile(f, path)
			if err != nil {
				return err
			}
			store, table = db, db
			log.Printf("opened existing hash table %s (%d entries, %s)", path, db.Len(), kind)
		} else {
			f, kind, err := open(os.O_RDWR | os.O_CREATE | os.O_EXCL)
			if err != nil {
				return err
			}
			db, err := hashdb.CreateFile(f, path, hashdb.Options{})
			if err != nil {
				return err
			}
			store, table = db, db
			log.Printf("created hash table %s (%s)", path, kind)
		}
	} else {
		store = hashdb.NewMemStore()
		log.Printf("using in-memory hash table")
	}

	journalPath := ""
	if o.journal {
		if !o.wb || o.dir == "" {
			store.Close()
			return fmt.Errorf("-journal requires -write-back and -dir")
		}
		journalPath = filepath.Join(o.dir, o.id+".wal")
		log.Printf("destage journal at %s", journalPath)
	}

	node, err := core.NewNode(core.NodeConfig{
		ID:          ring.NodeID(o.id),
		Store:       store,
		CacheSize:   o.cache,
		WriteBack:   o.wb,
		JournalPath: journalPath,
	})
	if err != nil {
		store.Close()
		return err
	}

	var serving atomic.Bool // /readyz: the rpc listener is up and no shutdown has begun
	if o.http != "" {
		go func() {
			log.Printf("metrics on http://%s/metrics, pprof under /debug/pprof/", o.http)
			if err := http.ListenAndServe(o.http, observe(node, table, &serving)); err != nil {
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
	log.Printf("node %s serving on %s", o.id, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	serving.Store(false)
	log.Printf("shutting down")
	if err := srv.Close(); err != nil {
		log.Printf("server close: %v", err)
	}
	return node.Close()
}

// observe is the node's HTTP side: /metrics renders core.NodeStats as
// shhc_node_* and, over an on-disk table, hashdb.Stats as shhc_hashdb_*;
// /readyz answers 200 while serving says so; pprof serves under
// /debug/pprof/.
func observe(node *core.Node, table *hashdb.DB, serving *atomic.Bool) *http.ServeMux {
	mux := http.NewServeMux()
	metrics.Serve(mux, func(ctx context.Context, w io.Writer) error {
		st, err := node.Stats(ctx)
		if err != nil {
			return err
		}
		if err := metrics.WritePrometheus(w, "shhc_node", "", nil, []core.NodeStats{st}); err != nil || table == nil {
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
