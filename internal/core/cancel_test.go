package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/device"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestCancelOwnerHandsFlightToRider: what a cancelled owner hands its rider
// is the work, not the flight (until PR 22 a prober goroutine kept the flight
// flying). A single-key call is a batch of one, so the batch rule holds — the
// owner of an in-flight SSD probe is cancelled while a rider waits on the same
// fingerprint; the owner fails its flight and returns its context's error,
// and the rider, whose context it was not, re-runs the walk itself and gets
// the stored answer. The store sees at most the two probes and no goroutine
// outlives the calls (TestMain fails the package on one).
func TestCancelOwnerHandsFlightToRider(t *testing.T) {
	store := newGatedBatchStore()
	n := newSSDOnlyNode(t, store)
	shared := fp(42)
	if _, err := store.DB.Put(shared, 7); err != nil {
		t.Fatalf("seed store: %v", err)
	}

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	defer cancelOwner()
	ownerDone := make(chan error, 1)
	go func() {
		_, err := n.Lookup(ownerCtx, shared)
		ownerDone <- err
	}()
	<-store.entered // owner's probe is in the air

	riderDone := make(chan batchAnswer, 1)
	go func() {
		r, err := n.Lookup(context.Background(), shared)
		riderDone <- batchAnswer{[]LookupResult{r}, err}
	}()
	waitCond(t, "rider to join the flight", func() bool { return interestIn(n, shared) == 2 })

	cancelOwner()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner returned %v, want context.Canceled", err)
	}
	<-store.entered // the rider's own probe
	close(store.gate)
	if r := <-riderDone; r.err != nil || !r.rs[0].Exists || r.rs[0].Value != 7 {
		t.Fatalf("rider = %+v, %v, want Exists=true Value=7", r.rs[0], r.err)
	}
	if got := store.probed.Load(); got > 2 {
		t.Fatalf("store saw %d probes, want at most 2 (the owner's and the rider's)", got)
	}
	assertStatsInvariant(t, n)
}

// TestCancelOwnerWithoutRidersAbortsInsert: a LookupOrInsert cancelled with
// its probe in the air, before the wave's write, must not insert — the
// fingerprint stays unrecorded, which is what a caller that got ctx.Err()
// must assume — and its failed flight must not poison a later call, which
// claims the fingerprint and inserts it.
func TestCancelOwnerWithoutRidersAbortsInsert(t *testing.T) {
	store := newGatedBatchStore()
	n := newSSDOnlyNode(t, store)
	lone := fp(99)
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, err := n.LookupOrInsert(ownerCtx, lone, 5)
		ownerDone <- err
	}()
	<-store.entered

	cancelOwner()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner returned %v, want context.Canceled", err)
	}
	if got := interestIn(n, lone); got != 0 {
		t.Fatalf("flight still registered after its owner returned (interest %d)", got)
	}
	if got := store.Len(); got != 0 {
		t.Fatalf("store holds %d entries after the cancelled insert, want 0", got)
	}

	close(store.gate)
	r, err := n.LookupOrInsert(context.Background(), lone, 5)
	if err != nil {
		t.Fatalf("post-cancel LookupOrInsert: %v", err)
	}
	if r.Exists {
		t.Fatal("post-cancel LookupOrInsert reported duplicate; the cancelled insert leaked")
	}
	if got := store.Len(); got != 1 {
		t.Fatalf("store holds %d entries, want 1", got)
	}
}

// TestCancelRiderLeavesFlightIntact: a rider whose context is cancelled
// stops waiting without disturbing the owner's flight.
func TestCancelRiderLeavesFlightIntact(t *testing.T) {
	store := newGatedBatchStore()
	n := newSSDOnlyNode(t, store)
	fp := fingerprint.FromUint64(7)
	if _, err := store.DB.Put(fp, 3); err != nil {
		t.Fatalf("seed store: %v", err)
	}

	// Owner with a cancellable context that is never cancelled.
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	defer cancelOwner()
	ownerDone := make(chan LookupResult, 1)
	go func() {
		r, err := n.Lookup(ownerCtx, fp)
		if err != nil {
			t.Errorf("owner: %v", err)
		}
		ownerDone <- r
	}()
	<-store.entered

	riderCtx, cancelRider := context.WithCancel(context.Background())
	riderDone := make(chan error, 1)
	go func() {
		_, err := n.Lookup(riderCtx, fp)
		riderDone <- err
	}()
	waitCond(t, "rider to join the flight", func() bool { return interestIn(n, fp) == 2 })

	cancelRider()
	if err := <-riderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rider returned %v, want context.Canceled", err)
	}

	close(store.gate)
	select {
	case r := <-ownerDone:
		if !r.Exists || r.Value != 3 {
			t.Fatalf("owner result = %+v, want Exists=true Value=3", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("owner never completed after its rider left")
	}
}

// TestCancelBatchStopsDeviceReads: cancelling a batch mid-SSD-phase stops
// the store from being asked for further reads; the batch fails with the
// context error and the node remains usable.
func TestCancelBatchStopsDeviceReads(t *testing.T) {
	store := device.Slow(hashdb.CreateMem(nil, hashdb.Options{}), device.Model{Name: "slow", ReadBase: 20 * time.Millisecond})
	n, err := NewNode(NodeConfig{
		ID:        ring.NodeID("batch-cancel"),
		Store:     store,
		CacheSize: 0,
		noBloom:   true,
		stripes:   1,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()

	const batch = 256
	fps := make([]fingerprint.Fingerprint, batch)
	for i := range fps {
		fps[i] = fingerprint.FromUint64(uint64(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = n.LookupBatch(ctx, fps)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled batch returned %v, want context.DeadlineExceeded", err)
	}
	// 256 reads at 20ms each over 16-way parallelism is ~320ms of modeled
	// time; hitting the 30ms deadline must abandon most of it.
	if elapsed > 200*time.Millisecond {
		t.Fatalf("cancelled batch took %v; device reads were not abandoned", elapsed)
	}
	if _, keys := store.Passed(); keys >= batch {
		t.Fatalf("store was asked for all %d keys despite cancellation", keys)
	}

	// The node must stay usable afterwards.
	if _, err := n.LookupOrInsert(context.Background(), fps[0], 1); err != nil {
		t.Fatalf("post-cancel LookupOrInsert: %v", err)
	}
}

// failingPutStore fails every Put once armed, a batched one included; Gets
// pass through.
type failingPutStore struct {
	*hashdb.DB
	failPuts atomic.Bool
}

func (f *failingPutStore) Put(fp fingerprint.Fingerprint, v hashdb.Value) (bool, error) {
	if f.failPuts.Load() {
		return false, errors.New("injected put failure")
	}
	return f.DB.Put(fp, v)
}

func (f *failingPutStore) PutBatch(_ context.Context, pairs []hashdb.Pair) ([]bool, int, error) {
	return putEach(f.Put, pairs)
}

// TestCancelPathSurfacesDestageError: on a write-back node, a destage
// failure parked by an eviction must surface on the next insert even when
// that insert runs with a cancellable context.
func TestCancelPathSurfacesDestageError(t *testing.T) {
	fs := &failingPutStore{DB: hashdb.CreateMem(nil, hashdb.Options{})}
	n, err := NewNode(NodeConfig{
		ID:        ring.NodeID("wb"),
		Store:     fs,
		CacheSize: 2,
		noBloom:   true, // force the flight-based insert arm
		WriteBack: true,
		stripes:   1,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // cancellable but never cancelled
	fs.failPuts.Store(true)
	var lastErr error
	// Overflow the 2-entry cache: evictions feed the asynchronous
	// destager, its waves fail, and the parked failure must come back
	// out of a later LookupOrInsert. The destage is asynchronous, so
	// keep inserting until the error surfaces.
	deadline := time.Now().Add(5 * time.Second)
	for i := uint64(0); lastErr == nil && time.Now().Before(deadline); i++ {
		_, lastErr = n.LookupOrInsert(ctx, fingerprint.FromUint64(i), Value(i+1))
	}
	if lastErr == nil {
		t.Fatal("destage failure from write-back eviction was swallowed on the cancellable path")
	}
	if !strings.Contains(lastErr.Error(), "destage") {
		t.Fatalf("surfaced error %v does not identify the destage failure", lastErr)
	}
	fs.failPuts.Store(false)
}

// TestCancelStormNoGoroutineLeak hammers a slow node with lookups that are
// all cancelled and checks the goroutine count returns to baseline: no
// owner or rider may be left behind.
func TestCancelStormNoGoroutineLeak(t *testing.T) {
	store := device.Slow(hashdb.CreateMem(nil, hashdb.Options{}), device.Model{Name: "slow", ReadBase: 2 * time.Millisecond})
	n, err := NewNode(NodeConfig{
		ID:        ring.NodeID("storm"),
		Store:     store,
		CacheSize: 0,
		noBloom:   true,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}

	before := runtime.NumGoroutine()
	const storm = 200
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*time.Millisecond)
			defer cancel()
			_, _ = n.LookupOrInsert(ctx, fingerprint.FromUint64(uint64(i%50)), Value(i))
		}(i)
	}
	wg.Wait()
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Give the runtime a beat to reap the storm's own goroutines.
	waitCond(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+5
	})
}
