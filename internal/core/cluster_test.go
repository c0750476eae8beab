package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

func newTestCluster(t *testing.T, n int, cfg ClusterConfig) *Cluster {
	t.Helper()
	backends := make([]Backend, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%d", i)),
			Store:         hashdb.CreateMem(nil, hashdb.Options{}),
			CacheSize:     256,
			BloomExpected: 100000,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		backends[i] = node
	}
	c, err := NewCluster(cfg, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	n1, _ := NewNode(NodeConfig{ID: "dup", Store: hashdb.CreateMem(nil, hashdb.Options{})})
	n2, _ := NewNode(NodeConfig{ID: "dup", Store: hashdb.CreateMem(nil, hashdb.Options{})})
	if _, err := NewCluster(ClusterConfig{}, n1, n2); err == nil {
		t.Fatal("duplicate backend IDs accepted")
	}
}

func TestClusterDedupAcrossNodes(t *testing.T) {
	c := newTestCluster(t, 4, ClusterConfig{})
	const n = 2000

	// First pass: everything new.
	for i := uint64(0); i < n; i++ {
		r, err := c.LookupOrInsert(context.Background(), fp(i), Value(i))
		if err != nil {
			t.Fatalf("LookupOrInsert: %v", err)
		}
		if r.Exists {
			t.Fatalf("fresh fingerprint %d reported existing", i)
		}
	}
	// Second pass: everything duplicate, with the stored value.
	for i := uint64(0); i < n; i++ {
		r, err := c.LookupOrInsert(context.Background(), fp(i), 0)
		if err != nil {
			t.Fatalf("LookupOrInsert: %v", err)
		}
		if !r.Exists || r.Value != Value(i) {
			t.Fatalf("duplicate %d = %+v, want exists with value %d", i, r, i)
		}
	}
}

func TestClusterRoutingIsStable(t *testing.T) {
	c := newTestCluster(t, 4, ClusterConfig{})
	for i := uint64(0); i < 100; i++ {
		owner1, err := c.Owner(fp(i))
		if err != nil {
			t.Fatalf("Owner: %v", err)
		}
		owner2, _ := c.Owner(fp(i))
		if owner1 != owner2 {
			t.Fatalf("owner changed between calls for fp %d", i)
		}
	}
}

func TestClusterLoadBalance(t *testing.T) {
	// Figure 6: at N=4 each node stores ~25% of the hash entries.
	c := newTestCluster(t, 4, ClusterConfig{})
	const n = 20000
	for i := uint64(0); i < n; i++ {
		if _, err := c.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
			t.Fatalf("LookupOrInsert: %v", err)
		}
	}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	total := 0
	for _, st := range stats {
		total += st.StoreEntries
	}
	if total != n {
		t.Fatalf("total entries = %d, want %d", total, n)
	}
	for _, st := range stats {
		share := float64(st.StoreEntries) / n
		if share < 0.15 || share > 0.35 {
			t.Fatalf("node %s holds %.1f%%, want 25%% +/- 10", st.ID, share*100)
		}
	}
}

func TestClusterBatchOrderPreserved(t *testing.T) {
	c := newTestCluster(t, 3, ClusterConfig{})
	pairs := make([]Pair, 500)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i % 100)), Val: Value(i % 100)}
	}
	rs, err := c.BatchLookupOrInsert(context.Background(), pairs)
	if err != nil {
		t.Fatalf("BatchLookupOrInsert: %v", err)
	}
	if len(rs) != len(pairs) {
		t.Fatalf("got %d results, want %d", len(rs), len(pairs))
	}
	// First 100 are new, the remaining 400 duplicates (in order).
	for i, r := range rs {
		wantExists := i >= 100
		if r.Exists != wantExists {
			t.Fatalf("result[%d].Exists = %v, want %v", i, r.Exists, wantExists)
		}
		if r.Exists && r.Value != Value(i%100) {
			t.Fatalf("result[%d].Value = %d, want %d", i, r.Value, i%100)
		}
	}
}

func TestClusterBatchEmpty(t *testing.T) {
	c := newTestCluster(t, 2, ClusterConfig{})
	rs, err := c.BatchLookupOrInsert(context.Background(), nil)
	if err != nil || rs != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", rs, err)
	}
}

func TestClusterConcurrentClients(t *testing.T) {
	// The paper's target scenario: many concurrent clients sending
	// overlapping fingerprint streams. Correctness requirement: every
	// fingerprint is counted as new at most once across all clients.
	c := newTestCluster(t, 4, ClusterConfig{})
	const clients = 8
	const perClient = 1000

	var newCount Counter
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < perClient; i++ {
				r, err := c.LookupOrInsert(context.Background(), fp(i), Value(i))
				if err != nil {
					t.Errorf("LookupOrInsert: %v", err)
					return
				}
				if !r.Exists {
					newCount.Inc()
				}
			}
		}()
	}
	wg.Wait()
	if got := newCount.Value(); got != perClient {
		t.Fatalf("new fingerprints = %d, want exactly %d", got, perClient)
	}
}

// Counter is a tiny atomic counter local to the test.
type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *Counter) Value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// flakyBackend wraps a Backend and fails all operations when tripped.
type flakyBackend struct {
	Backend
	mu   sync.Mutex
	dead bool
}

func (f *flakyBackend) kill() {
	f.mu.Lock()
	f.dead = true
	f.mu.Unlock()
}

func (f *flakyBackend) isDead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

var errInjected = errors.New("injected failure")

func (f *flakyBackend) Lookup(ctx context.Context, p fingerprint.Fingerprint) (LookupResult, error) {
	if f.isDead() {
		return LookupResult{}, errInjected
	}
	return f.Backend.Lookup(context.Background(), p)
}

func (f *flakyBackend) LookupOrInsert(ctx context.Context, p fingerprint.Fingerprint, v Value) (LookupResult, error) {
	if f.isDead() {
		return LookupResult{}, errInjected
	}
	return f.Backend.LookupOrInsert(context.Background(), p, v)
}

func (f *flakyBackend) BatchLookupOrInsert(ctx context.Context, pairs []Pair) ([]LookupResult, error) {
	if f.isDead() {
		return nil, errInjected
	}
	return f.Backend.BatchLookupOrInsert(context.Background(), pairs)
}

func (f *flakyBackend) Insert(ctx context.Context, p fingerprint.Fingerprint, v Value) error {
	if f.isDead() {
		return errInjected
	}
	return f.Backend.Insert(context.Background(), p, v)
}

func TestReplicationFailover(t *testing.T) {
	// Fault-tolerance extension: with Replicas=2, killing one node must
	// not lose duplicate detection for fingerprints it owned.
	flakies := make([]*flakyBackend, 3)
	backends := make([]Backend, 3)
	for i := range backends {
		node, err := NewNode(NodeConfig{
			ID:            ring.NodeID(fmt.Sprintf("node-%d", i)),
			Store:         hashdb.CreateMem(nil, hashdb.Options{}),
			CacheSize:     64,
			BloomExpected: 10000,
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		flakies[i] = &flakyBackend{Backend: node}
		backends[i] = flakies[i]
	}
	c, err := NewCluster(ClusterConfig{Replicas: 2}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	const n = 300
	for i := uint64(0); i < n; i++ {
		if _, err := c.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
			t.Fatalf("insert pass: %v", err)
		}
	}

	flakies[1].kill()

	// Every fingerprint must still be recognized as a duplicate via the
	// surviving replica.
	for i := uint64(0); i < n; i++ {
		r, err := c.Lookup(context.Background(), fp(i))
		if err != nil {
			t.Fatalf("Lookup(%d) after node death: %v", i, err)
		}
		if !r.Exists {
			t.Fatalf("fingerprint %d lost after single node failure", i)
		}
	}
	// LookupOrInsert must also fail over rather than double-insert.
	for i := uint64(0); i < n; i++ {
		r, err := c.LookupOrInsert(context.Background(), fp(i), 999)
		if err != nil {
			t.Fatalf("LookupOrInsert(%d) after node death: %v", i, err)
		}
		if !r.Exists {
			t.Fatalf("fingerprint %d re-inserted after node failure", i)
		}
	}
}

func TestNoReplicationLosesDataOnFailure(t *testing.T) {
	// Control for the failover test: with Replicas=1 a dead owner makes
	// its fingerprints unavailable (errors), proving the replication
	// extension is what provides the tolerance.
	flaky := &flakyBackend{}
	node, err := NewNode(NodeConfig{ID: "only", Store: hashdb.CreateMem(nil, hashdb.Options{}), CacheSize: 8})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	flaky.Backend = node
	c, err := NewCluster(ClusterConfig{Replicas: 1}, flaky)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	c.LookupOrInsert(context.Background(), fp(1), 1)
	flaky.kill()
	if _, err := c.Lookup(context.Background(), fp(1)); err == nil {
		t.Fatal("Lookup succeeded with the only replica dead")
	}
}

// addNode joins b to the ring and moves nothing: how a test swaps a member
// in (a reborn node, a wiped one rejoining) or changes the ring under a
// sweep. JoinNode is the membership change that moves entries.
func (c *Cluster) addNode(b Backend) error {
	c.mu.Lock()
	_, dup := c.backends[b.ID()]
	if !dup {
		c.backends[b.ID()] = b
	}
	c.mu.Unlock()
	if dup {
		return fmt.Errorf("core: duplicate backend %q", b.ID())
	}
	return c.publishTest(c.route.Load().next(b.ID(), ""))
}

// removeNode detaches a backend and moves nothing: how a test takes a dead
// member out. DrainNode is the membership change that moves entries.
func (c *Cluster) removeNode(id ring.NodeID) error {
	c.mu.Lock()
	_, ok := c.backends[id]
	delete(c.backends, id)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown backend %q", id)
	}
	return c.publishTest(c.route.Load().next("", id))
}

// publishTest publishes rec and hands it to every member that holds a
// record, so calls routed on it are served at once.
func (c *Cluster) publishTest(rec Routing) error {
	c.adopt(rec)
	var holders []Backend
	for _, b := range c.route.Load().backends {
		if _, ok := b.(RoutingHolder); ok {
			holders = append(holders, b)
		}
	}
	return c.raise(context.Background(), holders, rec)
}

// routingFor returns fp's replica set under the current routing snapshot.
func (c *Cluster) routingFor(fp fingerprint.Fingerprint) ([]Backend, error) {
	return c.route.Load().replicasFor(fp)
}

func TestAddRemoveNode(t *testing.T) {
	c := newTestCluster(t, 2, ClusterConfig{})
	extra, err := NewNode(NodeConfig{ID: "node-extra", Store: hashdb.CreateMem(nil, hashdb.Options{}), CacheSize: 8})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if err := c.addNode(extra); err != nil {
		t.Fatalf("addNode: %v", err)
	}
	if c.Size() != 3 {
		t.Fatalf("Size = %d, want 3", c.Size())
	}
	if err := c.addNode(extra); err == nil {
		t.Fatal("duplicate addNode succeeded")
	}
	if err := c.removeNode("node-extra"); err != nil {
		t.Fatalf("removeNode: %v", err)
	}
	if err := c.removeNode("node-extra"); err == nil {
		t.Fatal("double removeNode succeeded")
	}
	if c.Size() != 2 {
		t.Fatalf("Size = %d, want 2", c.Size())
	}
	// Cluster still functional after membership churn.
	if _, err := c.LookupOrInsert(context.Background(), fp(42), 42); err != nil {
		t.Fatalf("LookupOrInsert after churn: %v", err)
	}
	extra.Close()
}
