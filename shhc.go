// Package shhc is a Go implementation of SHHC, the Scalable Hybrid Hash
// Cluster for cloud backup services (Xu, Hu, Mkandawire, Jiang — ICDCS
// Workshops 2011): a distributed, low-latency fingerprint store and lookup
// service for inline data deduplication.
//
// The package is a facade over the implementation packages:
//
//   - a hybrid hash Node combines an in-RAM LRU cache and Bloom filter
//     with an on-SSD hash table (Figure 4 lookup flow);
//   - a Cluster partitions the fingerprint space across nodes with
//     consistent hashing and fans batched lookups out in parallel;
//   - nodes can be in-process (NewLocalCluster) or remote over SHHC's
//     TCP protocol (StartNodeServer / DialNode);
//   - the web front-end tier (NewFrontend), backup client (NewBackupClient)
//     and simulated cloud store (NewCloudStore) complete the paper's
//     four-tier architecture for end-to-end use.
//
// Quick start:
//
//	cluster, _ := shhc.NewLocalCluster(shhc.ClusterOptions{Nodes: 4})
//	defer cluster.Close()
//	res, _ := cluster.LookupOrInsert(context.Background(), shhc.FingerprintOf(chunk), 1)
//	if !res.Exists {
//		// first sight of this chunk: upload it
//	}
//
// Every lookup, insert, stats, and membership operation takes a
// context.Context as its first argument: deadlines bound how long a
// request may hold flight-table slots and device queues, and cancellation
// releases them early (propagated over the wire to remote nodes): a
// cancelled call issues no further device operation. Callers that need
// none of that pass context.Background().
//
//shhc:ctxapi
package shhc

import (
	"fmt"
	"net"
	"time"

	"shhc/internal/backup"
	"shhc/internal/batcher"
	"shhc/internal/cloudsim"
	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/ring"
	"shhc/internal/rpc"
	"shhc/internal/trace"
	"shhc/internal/webfront"
)

// Re-exported core types. These aliases are the public names; the internal
// packages are implementation detail.
type (
	// Fingerprint is a chunk's SHA-1 digest.
	Fingerprint = fingerprint.Fingerprint
	// Value is the locator stored per fingerprint.
	Value = core.Value
	// Pair couples a fingerprint with the locator to assign if new.
	Pair = core.Pair
	// LookupResult is a node's answer to one fingerprint query.
	LookupResult = core.LookupResult
	// Node is a hybrid RAM+SSD hash node.
	Node = core.Node
	// NodeConfig configures a Node.
	NodeConfig = core.NodeConfig
	// NodeStats snapshots a node's counters.
	NodeStats = core.NodeStats
	// ReplicationStats snapshots a cluster's replication counters: quorum
	// fan-out, read-repair, the async repair queue, and anti-entropy.
	ReplicationStats = core.ReplicationStats
	// AntiEntropyStats reports what one Cluster.AntiEntropy sweep did.
	AntiEntropyStats = core.AntiEntropyStats
	// Cluster routes fingerprint operations across hash nodes.
	Cluster = core.Cluster
	// Backend is a hash node as seen by the cluster (local or remote).
	Backend = core.Backend
	// NodeID identifies a node on the hash ring.
	NodeID = ring.NodeID
	// Batcher aggregates single lookups into batches (front-end behavior).
	Batcher = batcher.Batcher
	// BackupClient is the client-tier chunker/uploader.
	BackupClient = backup.Client
	// BackupReport summarizes one backup run.
	BackupReport = backup.Report
	// Manifest records the chunks of one backup for restore.
	Manifest = backup.Manifest
	// CloudStore is the simulated cloud storage backend.
	CloudStore = cloudsim.Store
	// Frontend is the web front-end HTTP server.
	Frontend = webfront.Server
	// WorkloadSpec parameterizes a synthetic fingerprint workload.
	WorkloadSpec = trace.Spec
	// WorkloadStats are Table I statistics recomputed from a stream.
	WorkloadStats = trace.Stats
)

// Lookup answer sources (which tier of the hybrid node answered).
const (
	SourceCache = core.SourceCache
	SourceBloom = core.SourceBloom
	SourceStore = core.SourceStore
	SourceNew   = core.SourceNew
)

// FingerprintOf computes a chunk's fingerprint.
func FingerprintOf(data []byte) Fingerprint { return fingerprint.FromData(data) }

// ParseFingerprint decodes a 40-char hex fingerprint.
func ParseFingerprint(s string) (Fingerprint, error) { return fingerprint.Parse(s) }

// ClusterOptions configures NewLocalCluster.
type ClusterOptions struct {
	// Nodes is the cluster size. Default 4 (the paper's largest
	// evaluated configuration).
	Nodes int
	// Dir, when set, keeps each node's hash table, and with WriteBack its
	// journal, under Dir (see core.OpenNode); a cluster built again over
	// Dir reopens them. Empty keeps the tables in memory.
	Dir string
	// CacheSize is the per-node LRU capacity. Default 1<<16 entries.
	CacheSize int
	// WriteBack acknowledges inserts from RAM and writes the SSD hash
	// table later: a per-node destager cleans the cold dirty end of the
	// cache in page-coalesced group-commit waves, ahead of eviction, and a
	// dirty entry that is evicted anyway is parked in a bounded per-node
	// buffer for the next wave. Inserts are RAM-speed; entries not yet
	// destaged survive only until a crash (call Flush/Close to write them
	// out durably). With Dir, an evicted dirty entry is group-commit
	// fsynced to the node's journal before its eviction acknowledges, so
	// a crash between eviction and destage loses nothing.
	WriteBack bool
	// Replicas > 1 keeps that many durable copies of every entry on
	// consecutive ring successors: inserts replicate with quorum
	// acknowledgment, divergent lookups trigger read-repair, and
	// anti-entropy sweeps re-replicate under-replicated ranges after
	// membership changes.
	Replicas int
	// WriteQuorum is how many replicas must durably hold an insert before
	// it acknowledges. 0 selects a majority (Replicas/2 + 1); values are
	// clamped to [1, Replicas]. 1 trades the durability guarantee for
	// availability: inserts succeed with every mirror down and the repair
	// queue backfills later. An insert that cannot reach its quorum never
	// fails outright — the deciding node's copy is already durable, so it
	// acknowledges with the safe "new" answer (the client uploads) and
	// repair converges the missing replicas; QuorumFailures counts these.
	WriteQuorum int
	// AntiEntropyInterval adds a periodic tick to the anti-entropy sweep
	// that re-replicates entries missing from any replica (Replicas > 1
	// only). Membership changes always trigger a sweep, interval or not.
	AntiEntropyInterval time.Duration
}

func (o *ClusterOptions) fill() {
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 1 << 16
	}
}

// NewLocalCluster builds an in-process SHHC cluster: n hybrid nodes behind
// a consistent-hash router. It is the library entry point for
// single-machine use and for experiments.
func NewLocalCluster(opts ClusterOptions) (*Cluster, error) {
	opts.fill()
	backends := make([]core.Backend, 0, opts.Nodes)
	for i := 0; i < opts.Nodes; i++ {
		node, _, err := core.OpenNode(opts.Dir, core.NodeConfig{
			ID:        ring.NodeID(fmt.Sprintf("node-%02d", i)),
			CacheSize: opts.CacheSize,
			WriteBack: opts.WriteBack,
		}, false)
		if err != nil {
			closeAll(backends)
			return nil, err
		}
		backends = append(backends, node)
	}
	cluster, err := core.NewCluster(core.ClusterConfig{
		Replicas:            opts.Replicas,
		WriteQuorum:         opts.WriteQuorum,
		AntiEntropyInterval: opts.AntiEntropyInterval,
	}, backends...)
	if err != nil {
		closeAll(backends)
		return nil, err
	}
	return cluster, nil
}

func closeAll(backends []core.Backend) {
	for _, b := range backends {
		b.Close()
	}
}

// ClusterConfig configures NewCluster (explicit-backend clusters): the
// replication factor, write quorum and anti-entropy interval.
type ClusterConfig = core.ClusterConfig

// NewCluster assembles a cluster from explicit backends (e.g. DialNode
// clients for a distributed deployment).
func NewCluster(cfg ClusterConfig, backends ...Backend) (*Cluster, error) {
	return core.NewCluster(cfg, backends...)
}

// NewNodeForScaling creates a standalone hybrid node to pass to
// Cluster.JoinNode (dynamic scaling); unlike StartNodeServer it stays
// in-process, so JoinNode and DrainNode can move its entries directly.
func NewNodeForScaling(cfg NodeConfig) (Backend, error) {
	return core.NewNode(cfg)
}

// NodeServer is a hash node exposed over TCP.
type NodeServer struct {
	Node *Node
	Addr net.Addr
	srv  *rpc.Server
}

// Close stops serving and closes the node.
func (s *NodeServer) Close() error {
	err := s.srv.Close()
	if cerr := s.Node.Close(); err == nil {
		err = cerr
	}
	return err
}

// StartNodeServer creates a hybrid node and serves it on addr
// (e.g. "127.0.0.1:0").
func StartNodeServer(addr string, cfg NodeConfig) (*NodeServer, error) {
	node, err := core.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	srv := rpc.NewServer(node, rpc.ServerConfig{})
	bound, err := srv.Listen(addr)
	if err != nil {
		node.Close()
		return nil, err
	}
	return &NodeServer{Node: node, Addr: bound, srv: srv}, nil
}

// DialNode connects to a remote hash node; the result is a Backend usable
// in NewCluster.
func DialNode(id NodeID, addr string) (Backend, error) {
	return rpc.Dial(id, addr, rpc.ClientConfig{})
}

// NewBatcher wraps a cluster with front-end-style query aggregation, by
// Nagle's rule: a call that finds no batch in flight goes out at once; calls
// that arrive during a flight share the next batch, which leaves when that
// flight lands, at maxBatch queries (paper batch sizes: 1, 128, 2048), or
// after maxDelayMillis behind a stalled flight — a bound, not a wait. The
// paper's latency-for-throughput trade is paid only under load.
func NewBatcher(cluster *Cluster, maxBatch int, maxDelayMillis int) *Batcher {
	return batcher.New(cluster.BatchLookupOrInsert, batcher.Config{
		MaxBatch: maxBatch,
		MaxDelay: millis(maxDelayMillis),
	})
}

// NewCloudStore creates a simulated cloud storage backend.
func NewCloudStore() *CloudStore { return cloudsim.New(cloudsim.Config{}) }

// NewFrontend creates the web front-end over a cluster and chunk store.
func NewFrontend(cluster *Cluster, chunks *CloudStore) (*Frontend, error) {
	return webfront.New(webfront.Config{Index: cluster, Chunks: chunks})
}

// NewBackupClient creates a backup client against a front-end URL.
// chunkSize > 0 selects fixed-size chunking; 0 selects content-defined.
func NewBackupClient(frontURL string, chunkSize int) (*BackupClient, error) {
	return backup.New(backup.Config{FrontURL: frontURL, ChunkSize: chunkSize})
}

// PaperWorkloads returns the four Table I workload specs.
func PaperWorkloads() []WorkloadSpec { return trace.PaperWorkloads() }

// NewWorkload creates a generator for a workload spec. Use spec.Scaled(k)
// to shrink paper-scale workloads.
func NewWorkload(spec WorkloadSpec) *trace.Generator { return trace.NewGenerator(spec) }
