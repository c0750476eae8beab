package core

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

// getEach and putEach answer a batch through a test double's own per-key
// method, so a batch cannot slip past the double's gate or counter through
// the store it embeds.
func getEach(get func(fingerprint.Fingerprint) (hashdb.Value, bool, error), fps []fingerprint.Fingerprint) ([]hashdb.Value, []bool, error) {
	vals, found := make([]hashdb.Value, len(fps)), make([]bool, len(fps))
	for i, f := range fps {
		var err error
		if vals[i], found[i], err = get(f); err != nil {
			return nil, nil, err
		}
	}
	return vals, found, nil
}

func putEach(put func(fingerprint.Fingerprint, hashdb.Value) (bool, error), pairs []hashdb.Pair) ([]bool, int, error) {
	created := make([]bool, len(pairs))
	for i, p := range pairs {
		var err error
		if created[i], err = put(p.FP, p.Val); err != nil {
			return nil, i, err
		}
	}
	return created, len(pairs), nil
}

// hookStore wraps a Store, counting point operations and optionally gating
// them, so tests can hold an SSD phase open while concurrent lookups pile
// onto its in-flight entry.
type hookStore struct {
	hashdb.Store
	gets     atomic.Int64
	puts     atomic.Int64
	getGate  chan struct{} // nil = ungated; Get blocks until closed
	putGate  chan struct{} // nil = ungated; Put blocks until closed
	failGets atomic.Bool
}

var errHookInjected = errors.New("injected store failure")

func (h *hookStore) Get(fp fingerprint.Fingerprint) (hashdb.Value, bool, error) {
	if h.getGate != nil {
		<-h.getGate
	}
	h.gets.Add(1)
	if h.failGets.Load() {
		return 0, false, errHookInjected
	}
	return h.Store.Get(fp)
}

func (h *hookStore) Put(fp fingerprint.Fingerprint, v hashdb.Value) (bool, error) {
	if h.putGate != nil {
		<-h.putGate
	}
	h.puts.Add(1)
	return h.Store.Put(fp, v)
}

func (h *hookStore) GetBatch(_ context.Context, fps []fingerprint.Fingerprint) ([]hashdb.Value, []bool, error) {
	return getEach(h.Get, fps)
}

func (h *hookStore) PutBatch(_ context.Context, pairs []hashdb.Pair) ([]bool, int, error) {
	return putEach(h.Put, pairs)
}

func assertStatsInvariant(t *testing.T, n *Node) NodeStats {
	t.Helper()
	st, err := n.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if got := st.CacheHits + st.BloomShort + st.StoreHits + st.StoreMisses; got != st.Lookups {
		t.Fatalf("tier counters sum to %d (cache %d + bloom %d + hits %d + misses %d), want Lookups = %d",
			got, st.CacheHits, st.BloomShort, st.StoreHits, st.StoreMisses, st.Lookups)
	}
	return st
}

// TestAsyncProbeCoalescing holds one SSD probe open while more lookups of
// the same fingerprint arrive: they must join the in-flight probe (or hit
// the cache it installs) rather than issue their own — one device read
// total.
func TestAsyncProbeCoalescing(t *testing.T) {
	hs := &hookStore{Store: hashdb.CreateMem(nil, hashdb.Options{}), getGate: make(chan struct{})}
	if _, err := hs.Store.Put(fp(1), 42); err != nil {
		t.Fatalf("seed: %v", err)
	}
	n := newMemNode(t, NodeConfig{Store: hs, CacheSize: 16, noBloom: true})

	const readers = 8
	var wg sync.WaitGroup
	results := make([]LookupResult, readers)
	errs := make([]error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = n.Lookup(context.Background(), fp(1))
		}(g)
		if g == 0 {
			time.Sleep(20 * time.Millisecond) // let the first own the flight
		}
	}
	time.Sleep(20 * time.Millisecond) // let the rest join it
	close(hs.getGate)
	wg.Wait()

	for g := 0; g < readers; g++ {
		if errs[g] != nil {
			t.Fatalf("reader %d: %v", g, errs[g])
		}
		if !results[g].Exists || results[g].Value != 42 {
			t.Fatalf("reader %d = %+v, want exists value 42", g, results[g])
		}
	}
	if got := hs.gets.Load(); got != 1 {
		t.Fatalf("store served %d reads for %d concurrent lookups, want 1 (coalesced)", got, readers)
	}
	st := assertStatsInvariant(t, n)
	if st.Lookups != readers {
		t.Fatalf("Lookups = %d, want %d", st.Lookups, readers)
	}
	if st.Coalesced+st.CacheHits != readers-1 {
		t.Fatalf("coalesced %d + cache hits %d, want %d lookups riding the one probe", st.Coalesced, st.CacheHits, readers-1)
	}
}

// TestAsyncExactlyOnceInsert holds the SSD write of a Bloom-proven-new
// fingerprint open while concurrent LookupOrInserts of the same
// fingerprint arrive: exactly one insert may happen, every other caller
// must see a duplicate with the winner's value.
func TestAsyncExactlyOnceInsert(t *testing.T) {
	hs := &hookStore{Store: hashdb.CreateMem(nil, hashdb.Options{}), putGate: make(chan struct{})}
	n := newMemNode(t, NodeConfig{Store: hs, CacheSize: 16})

	const writers = 8
	var wg sync.WaitGroup
	results := make([]LookupResult, writers)
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = n.LookupOrInsert(context.Background(), fp(7), Value(100+g))
		}(g)
		if g == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(hs.putGate)
	wg.Wait()

	var news, winnerVal = 0, Value(0)
	for g := 0; g < writers; g++ {
		if errs[g] != nil {
			t.Fatalf("writer %d: %v", g, errs[g])
		}
		if !results[g].Exists {
			news++
			winnerVal = Value(100 + g)
		}
	}
	if news != 1 {
		t.Fatalf("%d callers saw \"new\", want exactly 1", news)
	}
	for g := 0; g < writers; g++ {
		if results[g].Exists && results[g].Value != winnerVal {
			t.Fatalf("writer %d adopted value %d, want the winner's %d", g, results[g].Value, winnerVal)
		}
	}
	if got := hs.puts.Load(); got != 1 {
		t.Fatalf("store served %d writes, want 1", got)
	}
	st := assertStatsInvariant(t, n)
	if st.Inserts != 1 {
		t.Fatalf("Inserts = %d, want 1", st.Inserts)
	}
}

// TestAsyncReadOnlyMissThenInsert: a LookupOrInsert that joins a read-only
// probe's miss still owes the insert; it must re-run the walk, claim the
// fingerprint, and insert exactly once.
func TestAsyncReadOnlyMissThenInsert(t *testing.T) {
	gate := make(chan struct{})
	hs := &hookStore{Store: hashdb.CreateMem(nil, hashdb.Options{}), getGate: gate}
	n := newMemNode(t, NodeConfig{Store: hs, CacheSize: 16, noBloom: true})

	var (
		wg                sync.WaitGroup
		readRes, writeRes LookupResult
		readErr, writeErr error
	)
	wg.Add(2)
	go func() { defer wg.Done(); readRes, readErr = n.Lookup(context.Background(), fp(3)) }()
	time.Sleep(20 * time.Millisecond)
	go func() { defer wg.Done(); writeRes, writeErr = n.LookupOrInsert(context.Background(), fp(3), 33) }()
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if readErr != nil || writeErr != nil {
		t.Fatalf("errors: read %v, write %v", readErr, writeErr)
	}
	if readRes.Exists {
		t.Fatalf("read-only lookup = %+v, want miss", readRes)
	}
	if writeRes.Exists {
		t.Fatalf("LookupOrInsert = %+v, want \"new\" (it performed the insert)", writeRes)
	}
	if got := hs.puts.Load(); got != 1 {
		t.Fatalf("store served %d writes, want 1", got)
	}
	if v, ok, _ := hs.Store.Get(fp(3)); !ok || v != 33 {
		t.Fatalf("store entry = (%v, %v), want (33, true)", v, ok)
	}
	st := assertStatsInvariant(t, n)
	if st.Inserts != 1 {
		t.Fatalf("Inserts = %d, want 1", st.Inserts)
	}
}

// TestAsyncStoreErrorPropagates: a failed SSD phase must surface its error
// to the owner and to every waiter that joined the flight, and count no
// lookup.
func TestAsyncStoreErrorPropagates(t *testing.T) {
	hs := &hookStore{Store: hashdb.CreateMem(nil, hashdb.Options{}), getGate: make(chan struct{})}
	hs.failGets.Store(true)
	n := newMemNode(t, NodeConfig{Store: hs, CacheSize: 16, noBloom: true})

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = n.Lookup(context.Background(), fp(9))
		}(g)
		if g == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(hs.getGate)
	wg.Wait()
	for g, err := range errs {
		if err == nil || !errors.Is(err, errHookInjected) {
			t.Fatalf("lookup %d error = %v, want wrapped injected failure", g, err)
		}
	}
	st := assertStatsInvariant(t, n)
	if st.Lookups != 0 {
		t.Fatalf("Lookups = %d after pure failures, want 0", st.Lookups)
	}
}

// TestCloseWaitsForInflightProbes: Close must let SSD phases already in
// flight land against the open store; the probing caller gets its answer,
// later callers get the closed error.
func TestCloseWaitsForInflightProbes(t *testing.T) {
	hs := &hookStore{Store: hashdb.CreateMem(nil, hashdb.Options{}), getGate: make(chan struct{})}
	if _, err := hs.Store.Put(fp(5), 55); err != nil {
		t.Fatalf("seed: %v", err)
	}
	n, err := NewNode(NodeConfig{ID: "close-test", Store: hs, CacheSize: 16, noBloom: true})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}

	var (
		wg      sync.WaitGroup
		res     LookupResult
		lookErr error
	)
	wg.Add(1)
	go func() { defer wg.Done(); res, lookErr = n.Lookup(context.Background(), fp(5)) }()
	time.Sleep(20 * time.Millisecond)

	closeDone := make(chan error, 1)
	go func() { closeDone <- n.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned (%v) while a probe was still in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(hs.getGate)
	wg.Wait()
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if lookErr != nil || !res.Exists || res.Value != 55 {
		t.Fatalf("in-flight lookup = (%+v, %v), want (exists 55, nil)", res, lookErr)
	}
	if _, err := n.Lookup(context.Background(), fp(5)); err == nil {
		t.Fatal("Lookup after Close succeeded")
	}
}

// TestBatchAsyncDuplicateFingerprints: a batch carrying the same new
// fingerprint twice resolves in input order — first "new", second a
// duplicate with the first's value — through the coalesced SSD phase.
func TestBatchAsyncDuplicateFingerprints(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 16, noBloom: true})
	pairs := []Pair{
		{FP: fp(1), Val: 10},
		{FP: fp(2), Val: 20},
		{FP: fp(1), Val: 11}, // duplicate of item 0
		{FP: fp(1), Val: 12}, // and again
	}
	rs, err := n.BatchLookupOrInsert(context.Background(), pairs)
	if err != nil {
		t.Fatalf("BatchLookupOrInsert: %v", err)
	}
	if rs[0].Exists || rs[1].Exists {
		t.Fatalf("first occurrences = %+v, %+v, want new", rs[0], rs[1])
	}
	for _, i := range []int{2, 3} {
		if !rs[i].Exists || rs[i].Value != 10 {
			t.Fatalf("duplicate item %d = %+v, want exists with value 10", i, rs[i])
		}
	}
	st := assertStatsInvariant(t, n)
	if st.Inserts != 2 {
		t.Fatalf("Inserts = %d, want 2", st.Inserts)
	}
	if st.Coalesced != 2 {
		t.Fatalf("Coalesced = %d, want 2 (the same-batch duplicates)", st.Coalesced)
	}
}

// TestBatchAsyncCoalescesDeviceReads runs a cold-cache batch against the
// on-disk hash table and checks it read roughly one page per bucket page,
// not one per fingerprint — the payoff of GetBatch.
func TestBatchAsyncCoalescesDeviceReads(t *testing.T) {
	db, err := createTable(filepath.Join(t.TempDir(), "batch.db"), hashdb.Options{Buckets: 32})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	n, err := NewNode(NodeConfig{ID: "coalesce", Store: db, CacheSize: 64, BloomExpected: 4096})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()

	const count = 1024
	pairs := make([]Pair, count)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i + 1)}
	}
	if _, err := n.BatchLookupOrInsert(context.Background(), pairs); err != nil {
		t.Fatalf("seed batch: %v", err)
	}

	// Cold lookups: the 64-entry cache holds almost nothing of the 1024.
	fps := make([]fingerprint.Fingerprint, count)
	for i := range fps {
		fps[i] = fp(uint64(i))
	}
	before := db.Stats().Device.Reads
	rs, err := n.LookupBatch(context.Background(), fps)
	if err != nil {
		t.Fatalf("LookupBatch: %v", err)
	}
	reads := db.Stats().Device.Reads - before
	for i, r := range rs {
		if !r.Exists || r.Value != Value(i+1) {
			t.Fatalf("item %d = %+v, want exists value %d", i, r, i+1)
		}
	}
	pages := int64(db.Stats().Pages)
	if reads > pages {
		t.Fatalf("batch read %d pages of a %d-page table; want one read per page at most", reads, pages)
	}
	if reads*4 > count {
		t.Fatalf("batch read %d pages for %d fingerprints; want at least 4x coalescing", reads, count)
	}
	assertStatsInvariant(t, n)
}

// TestAsyncWriteBackBatch drives the write-back arm through the batch
// pipeline and checks nothing is lost between cache and store.
func TestAsyncWriteBackBatch(t *testing.T) {
	store := hashdb.CreateMem(nil, hashdb.Options{})
	n := newMemNode(t, NodeConfig{Store: store, CacheSize: 64, WriteBack: true, BloomExpected: 1 << 12})
	const count = 1000
	pairs := make([]Pair, count)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i)}
	}
	if _, err := n.BatchLookupOrInsert(context.Background(), pairs); err != nil {
		t.Fatalf("BatchLookupOrInsert: %v", err)
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if store.Len() != count {
		t.Fatalf("store has %d entries after flush, want %d", store.Len(), count)
	}
	st := assertStatsInvariant(t, n)
	if st.Inserts != count {
		t.Fatalf("Inserts = %d, want %d", st.Inserts, count)
	}
}

// TestSequentialWorkloadAnswers drives one seeded stream — rounds of 64
// distinct keys, one verb a round, in shuffled order — through the
// single-key calls and through batches of one and of 64. A single-key call
// is the batch of one, so all three must give every operation the same
// answer from the same tier and leave the same counters; a key is new
// exactly once. The cache holds exactly one round and each round is flushed,
// so neither eviction order nor destage timing can tell the drivers apart.
func TestSequentialWorkloadAnswers(t *testing.T) {
	const round = 64
	stream := []struct {
		insert bool
		base   uint64
		exists bool
	}{
		{true, 0, false},     // all new
		{true, 64, false},    // all new, and the first round leaves the cache
		{false, 0, true},     // store hits, loaded back into the cache
		{false, 0, true},     // cache hits
		{false, 1000, false}, // never stored: the filter's miss, or the store's
		{true, 64, true},     // duplicates the store answers
		{true, 1000, false},  // new after the read-only miss
	}
	order := rand.New(rand.NewSource(22)).Perm(round)
	configs := map[string]NodeConfig{
		"write-through": {CacheSize: round, stripes: 4},
		"write-back":    {CacheSize: round, stripes: 4, WriteBack: true},
		"no-filter":     {CacheSize: round, stripes: 4, noBloom: true},
	}
	ctx := context.Background()
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			var want []LookupResult
			var wantCounters [6]uint64
			for _, size := range []int{0, 1, round} { // 0: the single-key calls
				n := newMemNode(t, cfg)
				var got []LookupResult
				for _, st := range stream {
					pairs := make([]Pair, round)
					fps := make([]fingerprint.Fingerprint, round)
					for i, k := range order {
						fps[i] = fp(st.base + uint64(k))
						pairs[i] = Pair{FP: fps[i], Val: Value(st.base) + Value(k)}
					}
					for at := 0; at < round; at += max(size, 1) {
						rs := make([]LookupResult, 1)
						var err error
						switch {
						case size == 0 && st.insert:
							rs[0], err = n.LookupOrInsert(ctx, pairs[at].FP, pairs[at].Val)
						case size == 0:
							rs[0], err = n.Lookup(ctx, fps[at])
						case st.insert:
							rs, err = n.BatchLookupOrInsert(ctx, pairs[at:at+size])
						default:
							rs, err = n.LookupBatch(ctx, fps[at:at+size])
						}
						if err != nil {
							t.Fatalf("size %d: %v", size, err)
						}
						got = append(got, rs...)
					}
					for i, r := range got[len(got)-round:] {
						if r.Exists != st.exists || (r.Exists && r.Value != pairs[i].Val) {
							t.Fatalf("size %d, round at %d, op %d: %+v, want exists %v", size, st.base, i, r, st.exists)
						}
					}
					if err := n.Flush(); err != nil {
						t.Fatalf("Flush: %v", err)
					}
				}
				st := assertStatsInvariant(t, n)
				counters := [6]uint64{st.Lookups, st.CacheHits, st.BloomShort, st.StoreHits, st.Inserts, st.Coalesced}
				if want == nil {
					want, wantCounters = got, counters
					if st.Inserts != 3*round {
						t.Fatalf("Inserts = %d, want %d", st.Inserts, 3*round)
					}
					continue
				}
				if !slices.Equal(got, want) {
					t.Fatalf("batches of %d answer differently from the single-key calls", size)
				}
				if counters != wantCounters {
					t.Fatalf("batches of %d leave lookups, cacheHits, bloomShort, storeHits, inserts, coalesced = %v, single-key calls %v", size, counters, wantCounters)
				}
			}
		})
	}
}

// TestPhaseTimingsPopulated: the per-tier histograms must see every tier
// the workload exercises.
func TestPhaseTimingsPopulated(t *testing.T) {
	n := newMemNode(t, NodeConfig{CacheSize: 32, BloomExpected: 1 << 12})
	for i := 0; i < 200; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(uint64(i%50)), Value(i)); err != nil {
			t.Fatalf("LookupOrInsert: %v", err)
		}
	}
	st, err := n.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Phases.Cache.Count == 0 {
		t.Fatal("cache phase histogram empty")
	}
	if st.Phases.Bloom.Count == 0 {
		t.Fatal("bloom phase histogram empty")
	}
	// Every insert was a Bloom short-circuit (no SSD probes in this
	// workload), but the write-through puts run as SSD phases.
	if st.Phases.SSD.Count == 0 {
		t.Fatal("ssd phase histogram empty")
	}
	if st.Phases.Cache.Max == 0 {
		t.Fatal("cache phase recorded no time at all")
	}
}

// LookupBatch answers a batch of read-only lookups through the same
// pipeline as BatchLookupOrInsert, without inserting missing fingerprints.
func (n *Node) LookupBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]LookupResult, error) {
	if len(fps) == 0 {
		return nil, nil
	}
	results := make([]LookupResult, len(fps))
	err := n.batchAsync(ctx, results,
		func(i int) fingerprint.Fingerprint { return fps[i] },
		func(int) Value { return 0 }, modeLookup)
	if err != nil {
		return nil, err
	}
	return results, nil
}
