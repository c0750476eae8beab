// Command shhc-node runs one hybrid hash node and serves it over SHHC's
// TCP protocol. A cluster is a set of these plus a front-end (shhc-front)
// routing to them.
//
// Example:
//
//	shhc-node -id node-00 -addr 127.0.0.1:7001 -dir /data/shhc
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"shhc/internal/core"
	"shhc/internal/device"
	"shhc/internal/directio"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
	"shhc/internal/rpc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shhc-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id      = flag.String("id", "node-00", "node identity on the hash ring")
		addr    = flag.String("addr", "127.0.0.1:7001", "listen address")
		dir     = flag.String("dir", "", "directory for the on-disk hash table (empty = in-memory)")
		cache   = flag.Int("cache", 1<<16, "LRU cache capacity in entries")
		model   = flag.String("device", "ssd", "modeled index device: ssd|hdd|ram|null")
		sleep   = flag.Bool("sleep-device", false, "realize modeled device latency with real sleeps")
		wb      = flag.Bool("write-back", false, "acknowledge inserts from RAM and destage them in group-commit waves ahead of eviction")
		wbBatch = flag.Int("destage-batch", 0, "largest group-commit destage wave in entries (0 = half of -cache, at least 256)")
		wbIval  = flag.Duration("destage-interval", 0, "longest a dirty entry waits before a destage wave fires (0 = default 2ms)")
		wbQueue = flag.Int("destage-queue", 0, "dirty destage buffer bound in entries; evictions block when full (0 = 4x -destage-batch when set, else an eighth of -cache, at least 1024)")
		journal = flag.Bool("journal", false, "durable destage journal (write-back + -dir only): fsync evicted dirty entries to <dir>/<id>.wal before acking and replay the journal on restart")
		backend = flag.String("backend", "buffered", "hash table I/O backend (-dir only): buffered|direct (direct = O_DIRECT, bypassing the page cache; falls back to buffered where unsupported)")
		pprofOn = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = off")
	)
	flag.Parse()

	m, err := device.ModelByName(*model)
	if err != nil {
		return err
	}
	mode := device.Account
	if *sleep {
		mode = device.Sleep
	}
	dev := device.New(m, mode)

	var store hashdb.Store
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return fmt.Errorf("create dir: %w", err)
		}
		path := filepath.Join(*dir, *id+".shdb")
		open := func(flag int) (hashdb.File, string, error) {
			switch *backend {
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
				return nil, "", fmt.Errorf("unknown -backend %q (want buffered or direct)", *backend)
			}
		}
		if _, statErr := os.Stat(path); statErr == nil {
			f, kind, err := open(os.O_RDWR)
			if err != nil {
				return err
			}
			db, err := hashdb.OpenFile(f, path, dev)
			if err != nil {
				return err
			}
			store = db
			log.Printf("opened existing hash table %s (%d entries, %s)", path, db.Len(), kind)
		} else {
			f, kind, err := open(os.O_RDWR | os.O_CREATE | os.O_EXCL)
			if err != nil {
				return err
			}
			db, err := hashdb.CreateFile(f, path, hashdb.Options{Device: dev})
			if err != nil {
				return err
			}
			store = db
			log.Printf("created hash table %s (%s)", path, kind)
		}
	} else {
		store = hashdb.NewMemStore(dev)
		log.Printf("using in-memory hash table (device model %s)", m.Name)
	}

	journalPath := ""
	if *journal {
		if !*wb || *dir == "" {
			store.Close()
			return fmt.Errorf("-journal requires -write-back and -dir")
		}
		journalPath = filepath.Join(*dir, *id+".wal")
		log.Printf("destage journal at %s", journalPath)
	}

	node, err := core.NewNode(core.NodeConfig{
		ID:              ring.NodeID(*id),
		Store:           store,
		CacheSize:       *cache,
		WriteBack:       *wb,
		DestageBatch:    *wbBatch,
		DestageInterval: *wbIval,
		DestageQueue:    *wbQueue,
		JournalPath:     journalPath,
	})
	if err != nil {
		store.Close()
		return err
	}

	if *pprofOn != "" {
		// The blank net/http/pprof import registers its handlers on
		// http.DefaultServeMux; serve that on the side address.
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprofOn)
			if err := http.ListenAndServe(*pprofOn, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	srv := rpc.NewServer(node, rpc.ServerConfig{Logger: log.Default()})
	bound, err := srv.Listen(*addr)
	if err != nil {
		node.Close()
		return err
	}
	log.Printf("node %s serving on %s", *id, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	if err := srv.Close(); err != nil {
		log.Printf("server close: %v", err)
	}
	return node.Close()
}
