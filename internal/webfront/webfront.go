// Package webfront implements the paper's Web Front-end Cluster tier: the
// HTTP service that backup clients talk to.
//
// Per §III.A, the front-end "responds to requests from the clients and
// generates an upload plan for each back-up request by querying hash nodes
// in the hash cluster for the existence of requested data blocks", forwards
// new chunks to cloud storage, and "aggregates fingerprints from clients
// and sends them as a batch to hybrid nodes" to exploit chunk locality.
//
// Endpoints (JSON unless noted):
//
//	POST /v1/plan   {"fingerprints": ["<hex>", ...]}
//	                -> {"missing": [i, ...]}  indices the client must upload
//	POST /v1/upload raw chunk body, X-SHHC-Fingerprint header
//	GET  /v1/chunk/<hex>  raw chunk body (restore path)
//	GET  /v1/stats  cluster and storage statistics
package webfront

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"shhc/internal/batcher"
	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/metrics"
)

// Index is the hash-cluster view the front-end needs (a *core.Cluster).
// Handlers pass each request's context through, so a client that hangs
// up or times out releases its hash-cluster work. The pairs of a
// BatchLookupOrInsert live in the request's pooled scratch (see plan.go):
// an implementation must not retain them after it returns.
type Index interface {
	BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error)
	Stats(ctx context.Context) ([]core.NodeStats, error)
}

// ChunkStore is the cloud-storage view the front-end needs
// (a *cloudsim.Store, or a real object store in production).
type ChunkStore interface {
	Put(ctx context.Context, fp fingerprint.Fingerprint, data []byte) (bool, error)
	Get(ctx context.Context, fp fingerprint.Fingerprint) ([]byte, bool, error)
}

// Config configures the front-end server.
type Config struct {
	// Index is the hash cluster. Required.
	Index Index
	// Chunks is the backing chunk store. Required.
	Chunks ChunkStore
	// MaxChunkSize bounds uploads. Default 1 MiB.
	MaxChunkSize int
	// MaxPlanSize bounds fingerprints per plan request. Default 1<<20.
	MaxPlanSize int
	// AggregateBelow enables cross-request aggregation: plan requests
	// with fewer fingerprints than this are pooled with other clients'
	// queries into shared batches (the paper's front-end "aggregates
	// fingerprints from clients and sends them as a batch to hybrid
	// nodes"). 0 disables pooling; larger plans always go out directly
	// since they already amortize the round trip. Pooling follows Nagle's
	// rule (package batcher): a small plan that finds no pooled batch in
	// flight goes out at once, one that arrives during a flight shares the
	// next batch with whatever else arrived — so an idle front pays nothing
	// for it, and the paper's latency-for-throughput trade is made only
	// when there is throughput to buy. It is also the batch size that
	// dispatches without waiting for the flight to land.
	AggregateBelow int
	// AggregateDelay bounds how long a pooled query can wait behind a
	// stalled flight; it is not a wait every query pays. Default 2ms.
	AggregateDelay time.Duration
	// EnablePprof registers net/http/pprof's handlers under /debug/pprof/
	// on the server's mux, so CPU and allocation profiles can be pulled
	// from a live front-end (the allocation hunt behind the zero-alloc hot
	// path used exactly these). Off by default: profiles expose internals,
	// so production deployments opt in behind their ACLs.
	EnablePprof bool
	// Logger receives request errors; nil discards.
	Logger *log.Logger
}

// Server is the web front-end.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	httpSrv *http.Server
	ln      net.Listener

	// agg pools small plan requests across clients (nil when disabled).
	agg *batcher.Batcher

	// locator is the last chunk locator assigned; the paper stores a
	// <fingerprint, location> entry per chunk.
	locator atomic.Uint64

	plans   atomic.Int64
	lookups atomic.Int64
	uploads atomic.Int64
}

// New creates a front-end server.
func New(cfg Config) (*Server, error) {
	if cfg.Index == nil {
		return nil, errors.New("webfront: Config.Index is required")
	}
	if cfg.Chunks == nil {
		return nil, errors.New("webfront: Config.Chunks is required")
	}
	if cfg.MaxChunkSize <= 0 {
		cfg.MaxChunkSize = 1 << 20
	}
	if cfg.MaxPlanSize <= 0 {
		cfg.MaxPlanSize = 1 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	if cfg.AggregateBelow > 0 {
		s.agg = batcher.New(cfg.Index.BatchLookupOrInsert, batcher.Config{
			MaxBatch: cfg.AggregateBelow,
			MaxDelay: cfg.AggregateDelay,
		})
	}
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/v1/upload", s.handleUpload)
	s.mux.HandleFunc("/v1/chunk/", s.handleChunk)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	if cfg.EnablePprof {
		// Explicit registrations on our own mux (the blank net/http/pprof
		// import only feeds http.DefaultServeMux, which we do not serve).
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// AggregationStats reports cross-request pooling effectiveness (zero
// values when pooling is disabled).
func (s *Server) AggregationStats() batcher.Stats {
	if s.agg == nil {
		return batcher.Stats{}
	}
	return s.agg.Stats()
}

// Handler returns the HTTP handler (for tests via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds addr and serves in the background, returning the address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("webfront: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.cfg.Logger.Printf("webfront: serve: %v", err)
		}
	}()
	return ln.Addr(), nil
}

// Close stops the HTTP server and drains the aggregator.
func (s *Server) Close() error {
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Close()
	}
	if s.agg != nil {
		if aerr := s.agg.Close(); err == nil {
			err = aerr
		}
	}
	return err
}

// PlanRequest is the client's fingerprint manifest for one backup batch.
type PlanRequest struct {
	Fingerprints []string `json:"fingerprints"`
}

// PlanResponse lists which manifest entries must be uploaded.
type PlanResponse struct {
	// Missing holds indices into the request's Fingerprints array for
	// chunks not yet in cloud storage.
	Missing []int `json:"missing"`
}

// executePlan runs the batch against the cluster, pooling small plans
// through the shared aggregator when enabled. A pooled plan is one call to
// the aggregator: it goes out at once if no pooled batch is in flight, and
// otherwise whole, in the batch that follows the one in flight.
func (s *Server) executePlan(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	if s.agg == nil || len(pairs) >= s.cfg.AggregateBelow {
		return s.cfg.Index.BatchLookupOrInsert(ctx, pairs)
	}
	return s.agg.BatchLookupOrInsert(ctx, pairs)
}

// statusForError maps context expiry to 504 (the shared-timeout idiom for
// gateways) and everything else to 502.
func statusForError(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadGateway
}

// FingerprintHeader carries the chunk fingerprint on upload requests.
const FingerprintHeader = "X-SHHC-Fingerprint"

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	fp, err := fingerprint.Parse(r.Header.Get(FingerprintHeader))
	if err != nil {
		http.Error(w, "bad "+FingerprintHeader+": "+err.Error(), http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, int64(s.cfg.MaxChunkSize)+1))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(data) > s.cfg.MaxChunkSize {
		http.Error(w, "chunk too large", http.StatusRequestEntityTooLarge)
		return
	}
	// Integrity: the chunk must hash to its claimed fingerprint, or the
	// store would silently corrupt every future duplicate of it.
	if fingerprint.FromData(data) != fp {
		http.Error(w, "fingerprint does not match chunk content", http.StatusUnprocessableEntity)
		return
	}
	if _, err := s.cfg.Chunks.Put(r.Context(), fp, data); err != nil {
		s.cfg.Logger.Printf("webfront: upload %s: %v", fp.Short(), err)
		http.Error(w, "store error: "+err.Error(), statusForError(err))
		return
	}
	s.uploads.Add(1)
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	hexFP := strings.TrimPrefix(r.URL.Path, "/v1/chunk/")
	fp, err := fingerprint.Parse(hexFP)
	if err != nil {
		http.Error(w, "bad fingerprint: "+err.Error(), http.StatusBadRequest)
		return
	}
	data, ok, err := s.cfg.Chunks.Get(r.Context(), fp)
	if err != nil {
		http.Error(w, "store error: "+err.Error(), statusForError(err))
		return
	}
	if !ok {
		http.Error(w, "chunk not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// StatsResponse reports front-end and cluster counters. Each block below
// the front-end's own three is one flat object keyed by the metrics field
// names of the struct it renders (see metrics.Fields), holding native JSON
// values.
type StatsResponse struct {
	Plans   int64 `json:"plans"`
	Lookups int64 `json:"lookups"`
	Uploads int64 `json:"uploads"`
	// Replication is core.ReplicationStats, present only when the index
	// replicates (Replicas > 1 clusters).
	Replication map[string]any `json:"replication,omitempty"`
	// Aggregation is batcher.Stats for the pooling of small plans; present
	// only when pooling is on (Config.AggregateBelow > 0).
	Aggregation map[string]any `json:"aggregation,omitempty"`
	// Transport is core.ClientTransportStats, the front-end's client side
	// of the multiplexed RPC transport; present only when its clients have
	// stalled on credit.
	Transport map[string]any `json:"transport,omitempty"`
	// Nodes holds one object per node: "id", then every core.NodeStats
	// counter.
	Nodes []map[string]any `json:"nodes"`
}

// replicationReporter is the optional cluster surface for replication
// counters; asserted rather than added to Index so non-replicating
// indexes (and test fakes) need not implement it.
type replicationReporter interface {
	Replicated() bool
	ReplicationStats() core.ReplicationStats
}

// clientTransportReporter is the optional cluster surface for client-side
// mux transport counters (a *core.Cluster over remote RPC backends).
type clientTransportReporter interface {
	ClientTransportStats() core.ClientTransportStats
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	nodeStats, err := s.cfg.Index.Stats(r.Context())
	if err != nil {
		http.Error(w, "hash cluster error: "+err.Error(), statusForError(err))
		return
	}
	resp := StatsResponse{
		Plans:   s.plans.Load(),
		Lookups: s.lookups.Load(),
		Uploads: s.uploads.Load(),
		Nodes:   make([]map[string]any, len(nodeStats)),
	}
	if s.agg != nil {
		resp.Aggregation = maps.Collect(metrics.Values(s.AggregationStats()))
	}
	if tr, ok := s.cfg.Index.(clientTransportReporter); ok {
		if ts := tr.ClientTransportStats(); ts != (core.ClientTransportStats{}) {
			resp.Transport = maps.Collect(metrics.Values(ts))
		}
	}
	if rr, ok := s.cfg.Index.(replicationReporter); ok && rr.Replicated() {
		resp.Replication = maps.Collect(metrics.Values(rr.ReplicationStats()))
	}
	for i := range nodeStats {
		resp.Nodes[i] = maps.Collect(metrics.Values(&nodeStats[i]))
		resp.Nodes[i]["id"] = nodeStats[i].ID
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already written; nothing recoverable remains.
		return
	}
}
