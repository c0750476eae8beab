package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"shhc/internal/cloudsim"
	"shhc/internal/core"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
	"shhc/internal/rpc"
	"shhc/internal/webfront"
)

// The one stack configuration every workload runs on: the shhc-node and
// shhc-front defaults, two nodes, write-through unless the workload says
// otherwise. BENCHMARK.json states it in prose; the environment stamp of
// every result file carries it.
type stackConfig struct {
	Nodes          int    `json:"nodes"`
	CacheSize      int    `json:"cache_size_per_node"`
	ExpectedItems  int    `json:"expected_items_per_node"`
	Replicas       int    `json:"replicas"`
	AggregateBelow int    `json:"aggregate_below"`
	AggregateDelay string `json:"aggregate_delay"`
	Backend        string `json:"backend"`
	Clients        int    `json:"clients"`
}

const aggregateDelay = 2 * time.Millisecond

func defaultStack() stackConfig {
	return stackConfig{
		Nodes: 2, CacheSize: 1 << 16, ExpectedItems: 1 << 20, Replicas: 1,
		AggregateBelow: 64, AggregateDelay: aggregateDelay.String(),
		Backend: "buffered os.File", Clients: clients(),
	}
}

func (c stackConfig) scaled(by int) stackConfig {
	c.CacheSize /= by
	c.ExpectedItems /= by
	return c
}

type nodeParts struct {
	id      ring.NodeID
	dbPath  string
	walPath string
	db      *hashdb.DB
	node    *core.Node
	srv     *rpc.Server
	client  *rpc.Client
	// file is set on the traced stack only.
	file *tracedFile
}

// stack is the production wiring in one process: webfront.Server (HTTP on
// loopback) → batcher → core.Cluster/ring → rpc.Client ⇄ rpc.Server (mux
// transport on loopback TCP) → core.Node → hashdb.DB → os.File.
type stack struct {
	nodes   []*nodeParts
	cluster *core.Cluster
	chunks  *cloudsim.Store
	front   *webfront.Server
	httpSrv *http.Server
	served  chan struct{}
	url     string

	closeOnce sync.Once
	closeErr  error
}

// buildStack starts the stack in dir. With a tracer every seam gets its
// timing decorator; without one the stack is exactly what the cmd/
// binaries assemble.
func buildStack(cfg stackConfig, dir string, writeBack bool, tr *tracer) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	backends := make([]core.Backend, 0, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		np := &nodeParts{id: ring.NodeID(fmt.Sprintf("node-%02d", i))}
		st.nodes = append(st.nodes, np)
		np.dbPath = filepath.Join(dir, string(np.id)+".shdb")
		f, err := os.OpenFile(np.dbPath, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return st, err
		}
		var (
			file  hashdb.File  = f
			store hashdb.Store // set below
			ts    *tracedStore
		)
		if tr != nil {
			ts = &tracedStore{node: string(np.id), t: tr, sh: tr.newShard()}
			np.file = &tracedFile{f: f, store: ts}
			file = np.file
		}
		np.db, err = hashdb.CreateFile(file, np.dbPath, hashdb.Options{ExpectedItems: cfg.ExpectedItems})
		if err != nil {
			return st, err
		}
		store = np.db
		if ts != nil {
			ts.db = np.db
			store = ts
		}
		ncfg := core.NodeConfig{
			ID: np.id, Store: store, CacheSize: cfg.CacheSize, BloomExpected: cfg.ExpectedItems,
			WriteBack: writeBack,
		}
		if writeBack {
			np.walPath = filepath.Join(dir, string(np.id)+".wal")
			ncfg.JournalPath = np.walPath
		}
		np.node, err = core.NewNode(ncfg)
		if err != nil {
			np.db.Close()
			return st, err
		}
		var served core.Backend = np.node
		if tr != nil {
			served = tr.traceNode(np.node)
		}
		np.srv = rpc.NewServer(served, rpc.ServerConfig{})
		addr, err := np.srv.Listen("127.0.0.1:0")
		if err != nil {
			return st, err
		}
		np.client, err = rpc.Dial(np.id, addr.String(), rpc.ClientConfig{})
		if err != nil {
			return st, err
		}
		if tr != nil {
			backends = append(backends, tr.traceClient(np.client))
		} else {
			backends = append(backends, np.client)
		}
	}
	st.cluster, err = core.NewCluster(core.ClusterConfig{Replicas: cfg.Replicas}, backends...)
	if err != nil {
		return st, err
	}
	var index webfront.Index = st.cluster
	if tr != nil {
		index = &tracedIndex{Cluster: st.cluster, t: tr, sh: tr.newShard()}
	}
	st.chunks = cloudsim.New(cloudsim.Config{})
	st.front, err = webfront.New(webfront.Config{
		Index: index, Chunks: st.chunks,
		AggregateBelow: cfg.AggregateBelow, AggregateDelay: aggregateDelay,
	})
	if err != nil {
		return st, err
	}
	handler := st.front.Handler()
	if tr != nil {
		handler = tr.traceHandler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.url = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		_ = st.httpSrv.Serve(ln) // returns ErrServerClosed on close
	}()
	return st, nil
}

// flush destages every node and syncs its store: the one Flush of a run,
// after the measured window.
func (s *stack) flush() error {
	for _, np := range s.nodes {
		if err := np.node.Flush(); err != nil {
			return fmt.Errorf("flush %s: %w", np.id, err)
		}
	}
	return nil
}

// storageBytes is Σ sizes of the .shdb and .wal files.
func (s *stack) storageBytes() (int64, error) {
	var total int64
	for _, np := range s.nodes {
		for _, p := range []string{np.dbPath, np.walPath} {
			if p == "" {
				continue
			}
			fi, err := os.Stat(p)
			if err != nil {
				return 0, err
			}
			total += fi.Size()
		}
	}
	return total, nil
}

// close stops every listener and goroutine the stack started, front to
// back. It tolerates a half-built stack and a second call, which returns
// the first call's error.
func (s *stack) close() error {
	s.closeOnce.Do(func() { s.closeErr = s.closeAll() })
	return s.closeErr
}

func (s *stack) closeAll() error {
	var errs []error
	if s.httpSrv != nil {
		errs = append(errs, s.httpSrv.Close())
		<-s.served
	}
	if s.front != nil {
		errs = append(errs, s.front.Close())
	}
	if s.chunks != nil {
		errs = append(errs, s.chunks.Close())
	}
	if s.cluster != nil {
		errs = append(errs, s.cluster.Close()) // closes the rpc clients
	}
	for _, np := range s.nodes {
		if s.cluster == nil && np.client != nil {
			errs = append(errs, np.client.Close())
		}
		if np.srv != nil {
			errs = append(errs, np.srv.Close())
		}
		if np.node != nil {
			errs = append(errs, np.node.Close())
		}
	}
	return errors.Join(errs...)
}

// nodeStats reads every node's counters in process, plus the transport
// counters only the rpc server can overlay.
func (s *stack) nodeStats(ctx context.Context) ([]core.NodeStats, error) {
	out := make([]core.NodeStats, len(s.nodes))
	for i, np := range s.nodes {
		st, err := np.node.Stats(ctx)
		if err != nil {
			return nil, err
		}
		remote, err := np.client.Stats(ctx)
		if err != nil {
			return nil, err
		}
		st.Transport = remote.Transport
		out[i] = st
	}
	return out, nil
}
