package hashdb

import (
	"os"
	"path/filepath"
	"testing"

	"shhc/internal/directio"
	"shhc/internal/fingerprint"
	"shhc/internal/simtest"
)

func openDirect(t *testing.T, path string, flag int) *directio.File {
	t.Helper()
	f, err := directio.Open(path, flag, 0o644, directio.Options{})
	if err != nil {
		t.Fatalf("directio.Open(%s): %v", path, err)
	}
	return f
}

// TestDirectIOBackendServes runs a hash table end to end over the direct-I/O
// backend: create, fill past the bucket region (forcing overflow chains and
// the unaligned header RMW path), clean close, reopen, verify.
func TestDirectIOBackendServes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "direct.shdb")
	f := openDirect(t, path, os.O_RDWR|os.O_CREATE|os.O_EXCL)
	db, err := CreateFile(f, path, Options{Buckets: 4})
	if err != nil {
		t.Fatalf("CreateFile: %v", err)
	}
	t.Logf("direct=%v", f.Direct())
	const keys = 2000 // ~4 buckets × many pages of overflow
	for k := uint64(0); k < keys; k++ {
		if _, err := db.Put(fp(k), Value(k)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	f2 := openDirect(t, path, os.O_RDWR)
	db2, err := OpenFile(f2, path)
	if err != nil {
		t.Fatalf("OpenFile over directio: %v", err)
	}
	defer db2.Close()
	for k := uint64(0); k < keys; k++ {
		v, ok, err := db2.Get(fp(k))
		if err != nil || !ok || v != Value(k) {
			t.Fatalf("Get(%d) = %d, %v, %v; want %d", k, v, ok, err, k)
		}
	}
	if _, ok, _ := db2.Get(fp(keys + 1)); ok {
		t.Fatal("phantom key present")
	}
}

// TestDirectIOBackendBatch drives the batched read and write paths (the
// parallel.Do fan-out) through the backend's queue-depth semaphore.
func TestDirectIOBackendBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.shdb")
	f, err := directio.Open(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644, directio.Options{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateFile(f, path, Options{Buckets: 8})
	if err != nil {
		t.Fatalf("CreateFile: %v", err)
	}
	defer db.Close()
	const n = 1024
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i + 1)}
	}
	created, _, err := db.PutBatch(t.Context(), pairs)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i, c := range created {
		if !c {
			t.Fatalf("pair %d not created", i)
		}
	}
	fps := make([]fingerprint.Fingerprint, n)
	for i := range fps {
		fps[i] = pairs[i].FP
	}
	vals, found, err := db.GetBatch(t.Context(), fps)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i := range fps {
		if !found[i] || vals[i] != Value(i+1) {
			t.Fatalf("GetBatch[%d] = %d, %v; want %d", i, vals[i], found[i], i+1)
		}
	}
}

// TestDirectIOCrashEveryWrite is TestCrashInjectionEveryWritePoint through
// the direct-I/O backend: the FailFile sits over a directio.File and recovery
// reopens through the backend too, so the RMW bounce path cannot turn a torn
// write into silent corruption. Atomic kills plus one torn shape keep it fast
// enough for -race CI; the os.File sweep, which shares every layer above the
// backend, covers the other shapes.
func TestDirectIOCrashEveryWrite(t *testing.T) {
	dbSweep{
		opts: Options{Buckets: 2}, seed: seedTen, sched: crashOps,
		open:  func(t *testing.T, path string) File { return openDirect(t, path, os.O_RDWR) },
		Sweep: simtest.Sweep{Tears: []int{0, 7}},
	}.sweep(t).Run(t)
}
