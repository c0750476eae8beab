package core

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

// gatedBatchStore parks every GetBatch until the gate is closed (or the
// batch's context ends), so a test can hold a batch's SSD wave in the air
// while other operations pile onto its flights. Point operations pass.
type gatedBatchStore struct {
	*hashdb.DB
	gate    chan struct{}
	entered chan int // receives the key count of each GetBatch as it parks
	probed  atomic.Int64
}

func newGatedBatchStore() *gatedBatchStore {
	return &gatedBatchStore{DB: hashdb.CreateMem(nil, hashdb.Options{}), gate: make(chan struct{}), entered: make(chan int, 8)}
}

func (g *gatedBatchStore) GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]hashdb.Value, []bool, error) {
	g.probed.Add(int64(len(fps)))
	g.entered <- len(fps)
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	return g.DB.GetBatch(ctx, fps)
}

func (g *gatedBatchStore) Get(fp fingerprint.Fingerprint) (hashdb.Value, bool, error) {
	g.probed.Add(1)
	return g.DB.Get(fp)
}

// newSSDOnlyNode has no cache and no filter: every lookup reaches the SSD
// arm, which is the phase under test.
func newSSDOnlyNode(t *testing.T, store hashdb.Store) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{ID: ring.NodeID("flights"), Store: store, noBloom: true, stripes: 4})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

type batchAnswer struct {
	rs  []LookupResult
	err error
}

func goBatch(ctx context.Context, n *Node, pairs []Pair) chan batchAnswer {
	ch := make(chan batchAnswer, 1)
	go func() {
		rs, err := n.BatchLookupOrInsert(ctx, pairs)
		ch <- batchAnswer{rs, err}
	}()
	return ch
}

// interestIn reads how many parties await fp's flight (0: not in flight).
func interestIn(n *Node, fp fingerprint.Fingerprint) int {
	s := &n.stripes[n.stripeIndex(fp)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.inflight.get(fp); ok {
		return f.interest
	}
	return 0
}

// TestOverlappingBatchesShareFlights: two batches in the air at once have
// one new fingerprint in common. The first registers its flight; the second
// finds it in the in-flight table, probes only its own keys, and waits on
// the first batch's shared done — so the fingerprint is probed once,
// inserted once, reported new exactly once, and the other batch sees the
// first one's value.
func TestOverlappingBatchesShareFlights(t *testing.T) {
	store := newGatedBatchStore()
	n := newSSDOnlyNode(t, store)
	ctx := context.Background()
	shared := fp(1000)
	a := []Pair{{shared, 1}, {fp(1), 11}, {fp(2), 12}, {fp(3), 13}}
	b := []Pair{{fp(4), 24}, {shared, 2}, {fp(5), 25}, {fp(6), 26}, {shared, 3}}

	ach := goBatch(ctx, n, a)
	if got := <-store.entered; got != len(a) {
		t.Fatalf("first batch probes %d keys, want %d", got, len(a))
	}
	bch := goBatch(ctx, n, b)
	if got := <-store.entered; got != 3 {
		t.Fatalf("second batch probes %d keys, want 3: the shared fingerprint is the first batch's flight", got)
	}
	// Both of the second batch's occurrences ride the first batch's flight.
	if got := interestIn(n, shared); got != 3 {
		t.Fatalf("interest in the shared flight = %d, want 3 (owner + two riders)", got)
	}
	close(store.gate)
	ar, br := <-ach, <-bch
	if ar.err != nil || br.err != nil {
		t.Fatalf("batches failed: %v, %v", ar.err, br.err)
	}
	if r := ar.rs[0]; r.Exists {
		t.Fatalf("owner's answer for the shared fingerprint = %+v, want new", r)
	}
	for _, i := range []int{1, 4} {
		if r := br.rs[i]; !r.Exists || r.Value != 1 || r.Source != SourceStore {
			t.Fatalf("rider's answer %d = %+v, want the owner's insert (value 1) from the store tier", i, r)
		}
	}
	for i, r := range append(ar.rs[1:], br.rs[0], br.rs[2], br.rs[3]) {
		if r.Exists {
			t.Fatalf("unshared fingerprint %d reported as a duplicate: %+v", i, r)
		}
	}
	st := assertStatsInvariant(t, n)
	if st.Inserts != 7 || st.Coalesced != 2 || st.StoreEntries != 7 {
		t.Fatalf("inserts %d coalesced %d entries %d, want 7, 2, 7", st.Inserts, st.Coalesced, st.StoreEntries)
	}
	if got := store.probed.Load(); got != 7 {
		t.Fatalf("store probed for %d keys, want 7: the shared fingerprint once", got)
	}
}

// TestCancelledBatchRidersRerun: a batch is cancelled with its wave in the
// air while a single lookup and another batch ride one of its flights. The
// cancelled batch fails with its context's error; the riders must not adopt
// that error — it was not their context — but re-run the walk and claim the
// fingerprint themselves: exactly one of them inserts it.
func TestCancelledBatchRidersRerun(t *testing.T) {
	store := newGatedBatchStore()
	n := newSSDOnlyNode(t, store)
	shared := fp(2000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	owner := goBatch(ctx, n, []Pair{{shared, 1}, {fp(7), 17}})
	<-store.entered

	single := make(chan batchAnswer, 1)
	go func() {
		r, err := n.LookupOrInsert(context.Background(), shared, 2)
		single <- batchAnswer{[]LookupResult{r}, err}
	}()
	rider := goBatch(context.Background(), n, []Pair{{shared, 3}})
	waitCond(t, "both riders to join the flight", func() bool { return interestIn(n, shared) == 3 })

	cancel()
	if o := <-owner; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", o.err)
	}
	close(store.gate) // the riders' re-runs are batches too
	s, r := <-single, <-rider
	if s.err != nil || r.err != nil {
		t.Fatalf("riders adopted the owner's cancellation: %v, %v", s.err, r.err)
	}
	if s.rs[0].Exists == r.rs[0].Exists {
		t.Fatalf("riders answered %+v and %+v: exactly one must have inserted", s.rs[0], r.rs[0])
	}
	if v, ok, _ := store.DB.Get(shared); !ok || (v != 2 && v != 3) {
		t.Fatalf("store holds %d,%v for the shared fingerprint, want a rider's value", v, ok)
	}
	if _, ok, _ := store.DB.Get(fp(7)); ok {
		t.Fatal("the cancelled batch's own fingerprint was inserted")
	}
	if got := interestIn(n, shared); got != 0 {
		t.Fatalf("flight still registered after everyone returned (interest %d)", got)
	}
	assertStatsInvariant(t, n)
}

// TestAllocNodeBatchMiss: a batch whose every key goes to the SSD tier —
// all new (Bloom-negative, one PutBatch) or all stored but uncached (one
// GetBatch) — allocates a constant number of objects: the results, one slab
// of flights and its done channel, the store's answer slices, the worker
// goroutines. Not a flight, a channel, an LRU entry and a handful of slices
// per key. sync.Pool drops items at random under -race — a worker's chain
// scratch and its page, mostly — so the bounds are loose: they fail at one
// allocation per four keys.
func TestAllocNodeBatchMiss(t *testing.T) {
	db, err := createTable(filepath.Join(t.TempDir(), "alloc.shdb"), hashdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(NodeConfig{ID: "alloc", Store: db, CacheSize: 1024, BloomExpected: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ctx := context.Background()
	next := uint64(0)
	mint := func(size int) []Pair {
		pairs := make([]Pair, size)
		for i := range pairs {
			pairs[i] = Pair{FP: fp(next), Val: Value(next)}
			next++
		}
		return pairs
	}
	const runs = 20
	allNew := func(size int) float64 {
		batches := make([][]Pair, runs+1) // AllocsPerRun warms up with one extra run
		for i := range batches {
			batches[i] = mint(size)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			rs, err := n.BatchLookupOrInsert(ctx, batches[i])
			if err != nil || rs[size-1].Exists {
				t.Fatalf("all-new batch: %+v, %v", rs[size-1], err)
			}
			i++
		})
	}
	// A stored set four times the cache, replayed in order: each key has
	// been evicted by the time it comes round again.
	stored := mint(4096)
	for at := 0; at < len(stored); at += 1024 {
		if _, err := n.BatchLookupOrInsert(ctx, stored[at:at+1024]); err != nil {
			t.Fatal(err)
		}
	}
	at := 0
	storeHit := func(size int) float64 {
		return testing.AllocsPerRun(runs, func() {
			if at+size > len(stored) {
				at = 0
			}
			rs, err := n.BatchLookupOrInsert(ctx, stored[at:at+size])
			if err != nil || !rs[size-1].Exists || rs[size-1].Source != SourceStore {
				t.Fatalf("store-hit batch: %+v, %v", rs[size-1], err)
			}
			at += size
		})
	}
	for name, run := range map[string]func(int) float64{"all-new": allNew, "store-hit": storeHit} {
		small, large := run(256), run(1024)
		t.Logf("%s: %v allocs per batch at 256 pairs, %v at 1024", name, small, large)
		if large > 256 {
			t.Errorf("%s: a 1024-pair batch allocates %v objects; want a small constant", name, large)
		}
		if large > small+96 {
			t.Errorf("%s: allocations grow with the batch: %v at 256 pairs, %v at 1024", name, small, large)
		}
	}
}
