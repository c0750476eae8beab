// Package storetest holds the conformance checks every hashdb.Store passes,
// so a store written in another package runs the same table as hashdb's
// own.
package storetest

import (
	"context"
	"math/rand"
	"testing"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

func fp(i uint64) fingerprint.Fingerprint { return fingerprint.FromUint64(i) }

// GetBatchMatchesGet checks the read side on a fresh store from open: a
// batch of present, absent and repeated probes answers exactly as per-key
// Gets do, a deleted fingerprint misses both ways, and Range visits Len()
// entries.
func GetBatchMatchesGet(t *testing.T, open func(t *testing.T) hashdb.Store) {
	s := open(t)
	defer s.Close()
	ctx := context.Background()

	const n = 2000
	for i := uint64(0); i < n; i++ {
		if _, err := s.Put(fp(i), hashdb.Value(i+1)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i := uint64(0); i < n; i += 10 {
		if ok, err := s.Delete(fp(i)); err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v, %v), want (true, nil)", i, ok, err)
		}
	}
	if ok, err := s.Delete(fp(0)); err != nil || ok {
		t.Fatalf("second Delete(0) = (%v, %v), want (false, nil)", ok, err)
	}

	// Present, deleted, never stored, and repeated probes.
	var ids []uint64
	for i := uint64(0); i < n+100; i += 2 {
		ids = append(ids, i)
	}
	ids = append(ids, ids[:100]...)
	fps := make([]fingerprint.Fingerprint, len(ids))
	for i, id := range ids {
		fps[i] = fp(id)
	}
	vals, found, err := s.GetBatch(ctx, fps)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i, id := range ids {
		v, ok, err := s.Get(fps[i])
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if found[i] != ok || (ok && vals[i] != v) {
			t.Fatalf("probe %d (key %d): batch = (%v,%v), point = (%v,%v)", i, id, vals[i], found[i], v, ok)
		}
		if stored := id < n && id%10 != 0; ok != stored || (ok && v != hashdb.Value(id+1)) {
			t.Fatalf("probe %d (key %d) = (%v,%v) after the puts and deletes", i, id, v, ok)
		}
	}

	seen := 0
	if err := s.Range(func(fingerprint.Fingerprint, hashdb.Value) bool { seen++; return true }); err != nil {
		t.Fatalf("Range: %v", err)
	}
	if want := n - n/10; seen != want || s.Len() != want {
		t.Fatalf("Range visited %d entries, Len = %d, want %d", seen, s.Len(), want)
	}

	// Delete then miss, for every key: nothing the store did while it grew
	// may keep a deleted entry reachable.
	for i := uint64(0); i < n; i++ {
		if _, err := s.Delete(fp(i)); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
	}
	_, found, err = s.GetBatch(ctx, fps)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i, ok := range found {
		if ok {
			t.Fatalf("probe %d (key %d) found after every key was deleted", i, ids[i])
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after every key was deleted", s.Len())
	}
}

// PutBatchMatchesPut checks the write side on two fresh stores from open:
// one duplicate-heavy PutBatch reports created exactly as the same pairs
// Put one by one do — the first occurrence of a fingerprint creates, later
// ones update — and leaves the same contents.
func PutBatchMatchesPut(t *testing.T, open func(t *testing.T) hashdb.Store) {
	rng := rand.New(rand.NewSource(42))
	pairs := make([]hashdb.Pair, 500)
	for i := range pairs {
		pairs[i] = hashdb.Pair{FP: fp(uint64(rng.Intn(120))), Val: hashdb.Value(rng.Intn(1 << 20))}
	}
	sequential, batched := open(t), open(t)
	defer sequential.Close()
	defer batched.Close()

	created, _, err := batched.PutBatch(context.Background(), pairs)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	for i, p := range pairs {
		c, err := sequential.Put(p.FP, p.Val)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		if created[i] != c {
			t.Fatalf("created[%d] = %v, sequential Put says %v", i, created[i], c)
		}
	}
	if sequential.Len() != batched.Len() {
		t.Fatalf("Len mismatch: sequential %d, batched %d", sequential.Len(), batched.Len())
	}
	if err := sequential.Range(func(f fingerprint.Fingerprint, v hashdb.Value) bool {
		bv, ok, err := batched.Get(f)
		if err != nil || !ok || bv != v {
			t.Errorf("batched Get(%s) = (%v,%v,%v), want (%v,true,nil)", f.Short(), bv, ok, err, v)
		}
		return true
	}); err != nil {
		t.Fatalf("Range: %v", err)
	}
}
