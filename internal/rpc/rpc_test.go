package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/metrics"
	"shhc/internal/ring"
	"shhc/internal/wire"
)

func fp(i uint64) fingerprint.Fingerprint { return fingerprint.FromUint64(i) }

// startNode spins up a node + server and returns a connected client.
func startNode(t *testing.T, id ring.NodeID) (*core.Node, *Client) {
	t.Helper()
	node, err := core.NewNode(core.NodeConfig{
		ID:            id,
		Store:         hashdb.CreateMem(nil, hashdb.Options{}),
		CacheSize:     256,
		BloomExpected: 100000,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client, err := Dial(id, addr.String(), ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		node.Close()
	})
	return node, client
}

func TestPing(t *testing.T) {
	_, client := startNode(t, "n1")
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestRemoteLookupOrInsert(t *testing.T) {
	_, client := startNode(t, "n1")

	r, err := client.LookupOrInsert(context.Background(), fp(1), 11)
	if err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if r.Exists {
		t.Fatal("fresh fingerprint reported existing")
	}

	r, err = client.LookupOrInsert(context.Background(), fp(1), 0)
	if err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if !r.Exists || r.Value != 11 {
		t.Fatalf("duplicate = %+v, want exists value 11", r)
	}
	if r.Source != core.SourceCache {
		t.Fatalf("source = %v, want cache", r.Source)
	}
}

// TestRemoteReadOnlyLookupAndInsert: the lookup and insert verbs, sent as
// a batch of one by the single-key calls and as a batch of many by anyone.
// A lookup of any size inserts nothing; an insert of any size overwrites.
func TestRemoteReadOnlyLookupAndInsert(t *testing.T) {
	node, client := startNode(t, "n1")
	ctx := context.Background()
	r, err := client.Lookup(ctx, fp(5))
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if r.Exists {
		t.Fatal("absent fingerprint reported existing")
	}
	if err := client.Insert(ctx, fp(5), 50); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	r, _ = client.Lookup(ctx, fp(5))
	if !r.Exists || r.Value != 50 {
		t.Fatalf("after Insert: %+v, want exists 50", r)
	}

	// verb sends pairs with one verb and decodes the batch-result.
	verb := func(v wire.Type, pairs ...core.Pair) []core.LookupResult {
		t.Helper()
		resp, body, err := client.call(ctx, 1, v, appendCorePairBatch(pairs))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		defer wire.PutBuf(body)
		rs, err := decodeCoreResults(resp.Payload, len(pairs), v.String())
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		return rs
	}
	before, _ := node.Stats(ctx)
	rs := verb(wire.TypeLookup, core.Pair{FP: fp(5), Val: 9}, core.Pair{FP: fp(6), Val: 9}, core.Pair{FP: fp(7), Val: 9})
	if !rs[0].Exists || rs[0].Value != 50 || rs[1].Exists || rs[2].Exists {
		t.Fatalf("lookup of three = %+v, want only fp 5, at 50", rs)
	}
	if st, _ := node.Stats(ctx); st.Inserts != before.Inserts || st.StoreEntries != 1 {
		t.Fatalf("a lookup inserted: inserts %d -> %d, %d entries", before.Inserts, st.Inserts, st.StoreEntries)
	}

	rs = verb(wire.TypeInsert, core.Pair{FP: fp(5), Val: 51}, core.Pair{FP: fp(6), Val: 60})
	for i, r := range rs {
		if r != (core.LookupResult{}) {
			t.Fatalf("insert answer %d = %+v, want all zero", i, r)
		}
	}
	for _, want := range []core.Pair{{FP: fp(5), Val: 51}, {FP: fp(6), Val: 60}} {
		if r, err := client.Lookup(ctx, want.FP); err != nil || !r.Exists || r.Value != want.Val {
			t.Fatalf("after insert of two: %+v, %v; want exists %d", r, err, want.Val)
		}
	}
}

func TestRemoteBatch(t *testing.T) {
	_, client := startNode(t, "n1")
	pairs := make([]core.Pair, 300)
	for i := range pairs {
		pairs[i] = core.Pair{FP: fp(uint64(i % 100)), Val: core.Value(i % 100)}
	}
	rs, err := client.BatchLookupOrInsert(context.Background(), pairs)
	if err != nil {
		t.Fatalf("BatchLookupOrInsert: %v", err)
	}
	if len(rs) != len(pairs) {
		t.Fatalf("got %d results, want %d", len(rs), len(pairs))
	}
	for i, r := range rs {
		wantExists := i >= 100
		if r.Exists != wantExists {
			t.Fatalf("result[%d].Exists = %v, want %v", i, r.Exists, wantExists)
		}
	}
}

func TestRemoteStats(t *testing.T) {
	_, client := startNode(t, "stats-node")
	client.LookupOrInsert(context.Background(), fp(1), 1)
	client.LookupOrInsert(context.Background(), fp(1), 1)

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.ID != "stats-node" {
		t.Fatalf("ID = %q, want stats-node", st.ID)
	}
	if st.Lookups != 2 || st.Inserts != 1 || st.StoreEntries != 1 {
		t.Fatalf("stats = %+v, want 2 lookups / 1 insert / 1 entry", st)
	}
	if st.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", st.CacheHits)
	}
}

// statsBackend is a backend whose only verb is Stats: a fixed snapshot.
type statsBackend struct {
	core.Backend
	st core.NodeStats
}

func (b statsBackend) Stats(context.Context) (core.NodeStats, error) { return b.st, nil }

// TestRemoteStatsCarriesEveryCounter: a remote reader sees exactly the
// NodeStats the node reported, every leaf of it. The snapshot gets a
// distinct value in every leaf through the stats walker itself, so a
// counter added to NodeStats is covered without an edit here.
func TestRemoteStatsCarriesEveryCounter(t *testing.T) {
	fs := metrics.Fields(core.NodeStats{})
	for i := range fs {
		fs[i].Bits = uint64(i+1) << 8
	}
	want := core.NodeStats{ID: "every-counter"}
	metrics.SetFields(&want, fs)

	srv := NewServer(statsBackend{st: want}, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client, err := Dial(want.ID, addr.String(), ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	got, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	// The server overlays its own transport counters on the backend's.
	got.Transport = want.Transport
	if !reflect.DeepEqual(got, want) {
		gotFs, wantFs := metrics.Fields(&got), metrics.Fields(&want)
		for i := range wantFs {
			if gotFs[i] != wantFs[i] {
				t.Errorf("%s = %#x, want %#x", wantFs[i].Name, gotFs[i].Bits, wantFs[i].Bits)
			}
		}
		t.Fatalf("remote stats differ from the node's")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, client := startNode(t, "n1")
	const goroutines, each = 16, 200

	var wg sync.WaitGroup
	news := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r, err := client.LookupOrInsert(context.Background(), fp(uint64(i)), core.Value(i))
				if err != nil {
					t.Errorf("LookupOrInsert: %v", err)
					return
				}
				if !r.Exists {
					news[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range news {
		total += n
	}
	if total != each {
		t.Fatalf("total new fingerprints = %d, want %d (each unique seen once)", total, each)
	}
}

func TestClusterOverRPC(t *testing.T) {
	// Full distributed assembly: a core.Cluster routing to 3 remote nodes
	// over real TCP connections.
	backends := make([]core.Backend, 3)
	for i := range backends {
		_, client := startNode(t, ring.NodeID(fmt.Sprintf("remote-%d", i)))
		backends[i] = client
	}
	cluster, err := core.NewCluster(core.ClusterConfig{}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	// Cluster.Close would close the clients; they are cleaned up by
	// startNode, so detach instead of double-closing.

	const n = 1000
	pairs := make([]core.Pair, n)
	for i := range pairs {
		pairs[i] = core.Pair{FP: fp(uint64(i)), Val: core.Value(i)}
	}
	rs, err := cluster.BatchLookupOrInsert(context.Background(), pairs)
	if err != nil {
		t.Fatalf("BatchLookupOrInsert: %v", err)
	}
	for i, r := range rs {
		if r.Exists {
			t.Fatalf("fresh fingerprint %d reported existing", i)
		}
	}
	rs, err = cluster.BatchLookupOrInsert(context.Background(), pairs)
	if err != nil {
		t.Fatalf("second batch: %v", err)
	}
	for i, r := range rs {
		if !r.Exists || r.Value != core.Value(i) {
			t.Fatalf("duplicate %d = %+v", i, r)
		}
	}

	// Entries spread across all nodes.
	stats, err := cluster.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	for _, st := range stats {
		if st.StoreEntries == 0 {
			t.Fatalf("node %s holds no entries; routing is degenerate", st.ID)
		}
	}
}

func TestServerSurvivesGarbageConnection(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{ID: "g", Store: hashdb.CreateMem(nil, hashdb.Options{}), CacheSize: 8})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()
	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	// Throw garbage at the server.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\nnot the shhc protocol at all"))
	conn.Close()

	// Server must still answer a well-formed client.
	client, err := Dial("g", addr.String(), ClientConfig{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("Ping after garbage: %v", err)
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	node, err := core.NewNode(core.NodeConfig{ID: "r", Store: hashdb.CreateMem(nil, hashdb.Options{}), CacheSize: 8})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client, err := Dial("r", addr.String(), ClientConfig{Conns: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	// Restart the server on the same port.
	srv.Close()
	srv2 := NewServer(node, ServerConfig{})
	if _, err := srv2.Listen(addr.String()); err != nil {
		t.Fatalf("relisten: %v", err)
	}
	defer srv2.Close()

	// First call may fail as the dead conn is detected; the pool must
	// redial transparently within a few attempts.
	var pingErr error
	for attempt := 0; attempt < 5; attempt++ {
		if pingErr = client.Ping(context.Background()); pingErr == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if pingErr != nil {
		t.Fatalf("client did not recover after server restart: %v", pingErr)
	}
}

// TestDeadReplicaFailsFastThenRedials stops one of three nodes behind a
// three-replica cluster. The lookups its replicas answer must not each wait
// out the redial backoff to the stopped node: one redial that fails is
// remembered for redialSpan. Restarted at the same address, the node is
// reached again by the first call after that span.
func TestDeadReplicaFailsFastThenRedials(t *testing.T) {
	var (
		backends = make([]core.Backend, 3)
		clients  = make([]*Client, 3)
		nodes    = make([]*core.Node, 3)
		srvs     = make([]*Server, 3)
		addrs    = make([]string, 3)
	)
	for i := range backends {
		id := ring.NodeID(fmt.Sprintf("replica-%d", i))
		node, err := core.NewNode(core.NodeConfig{ID: id, Store: hashdb.CreateMem(nil, hashdb.Options{}), CacheSize: 256})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		srvs[i] = NewServer(node, ServerConfig{})
		addr, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		addrs[i] = addr.String()
		if clients[i], err = Dial(id, addrs[i], ClientConfig{Timeout: 5 * time.Second}); err != nil {
			t.Fatalf("Dial: %v", err)
		}
		nodes[i], backends[i] = node, clients[i]
	}
	t.Cleanup(func() {
		for i := range clients {
			clients[i].Close()
			srvs[i].Close()
			nodes[i].Close()
		}
	})
	cluster, err := core.NewCluster(core.ClusterConfig{Replicas: 3, WriteQuorum: 3}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	const n = 60
	ctx := context.Background()
	for i := uint64(0); i < n; i++ {
		if _, err := cluster.LookupOrInsert(ctx, fp(i), core.Value(i)); err != nil {
			t.Fatalf("LookupOrInsert %d: %v", i, err)
		}
	}

	srvs[0].Close()
	slow := 0
	for i := uint64(0); i < n; i++ {
		start := time.Now()
		r, err := cluster.Lookup(ctx, fp(i))
		if err != nil || !r.Exists || r.Value != core.Value(i) {
			t.Fatalf("Lookup %d with a replica down = (%+v, %v), want its value", i, r, err)
		}
		if time.Since(start) > redialSpan*2/3 {
			slow++
		}
	}
	// Each redial to the stopped node takes redialSpan and is followed by
	// redialSpan of failing fast; n lookups of microseconds run well inside
	// two such rounds.
	if slow > 2 {
		t.Fatalf("%d of %d lookups waited out the redial backoff to a stopped replica, want at most 2", slow, n)
	}

	srvs[0] = NewServer(nodes[0], ServerConfig{})
	if _, err := srvs[0].Listen(addrs[0]); err != nil {
		t.Fatalf("relisten: %v", err)
	}
	time.Sleep(redialSpan)
	if r, err := clients[0].Lookup(ctx, fp(0)); err != nil || !r.Exists {
		t.Fatalf("Lookup on the restarted node = (%+v, %v), want it reached again", r, err)
	}
}

func TestClientClosedErrors(t *testing.T) {
	_, client := startNode(t, "n1")
	client.Close()
	if _, err := client.Lookup(context.Background(), fp(1)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Lookup after close = %v, want ErrClientClosed", err)
	}
	if err := client.Close(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("double Close = %v, want ErrClientClosed", err)
	}
}

func TestServerErrorPropagation(t *testing.T) {
	// A closed node makes the server return TypeError frames.
	node, err := core.NewNode(core.NodeConfig{ID: "dead", Store: hashdb.CreateMem(nil, hashdb.Options{}), CacheSize: 8})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := NewServer(node, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client, err := Dial("dead", addr.String(), ClientConfig{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	node.Close()
	_, err = client.LookupOrInsert(context.Background(), fp(1), 1)
	var serverErr *ServerError
	if !errors.As(err, &serverErr) {
		t.Fatalf("err = %v, want *ServerError", err)
	}
}

// TestTransportConstants pins the transport's fixed sizes: four default
// streams per connection, the repair stream after them, and a 256 KiB
// send window on both sides, which the client grants back a quarter at a
// time.
func TestTransportConstants(t *testing.T) {
	_, client := startNode(t, "n1")
	client.mu.Lock()
	cc := client.conns[0]
	client.mu.Unlock()
	if defaultStreams != 4 || client.repairStream != 5 || cc.window != 256<<10 || cc.grantEvery != 64<<10 {
		t.Fatalf("streams %d, repair stream %d, client window %d, grant every %d; want 4, 5, 256 KiB, 64 KiB",
			defaultStreams, client.repairStream, cc.window, cc.grantEvery)
	}
	srv := NewServer(nil, ServerConfig{})
	defer srv.Close()
	if srv.window != 256<<10 {
		t.Fatalf("server window %d, want 256 KiB", srv.window)
	}
}
