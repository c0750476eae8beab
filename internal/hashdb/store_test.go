package hashdb

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"shhc/internal/fingerprint"
)

// osWriteFile indirection keeps hashdb_test.go free of an os import cycle
// concern and gives one place to adjust permissions.
func osWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// openRW opens a database file raw for corruption injection in tests.
func openRW(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR, 0)
}

// media are the two files a table runs over, each with three buckets: chains
// overflow, and a batch lands many keys per page.
var media = []struct {
	name string
	open func(t *testing.T) *DB
}{
	{"DB", func(t *testing.T) *DB { return newTestDB(t, Options{Buckets: 3}) }},
	{"MemFile", func(*testing.T) *DB { return CreateMem(nil, Options{Buckets: 3}) }},
}

// TestGetBatchMatchesGet checks the read side: a batch of present, absent
// and repeated probes answers exactly as per-key Gets do, a deleted
// fingerprint misses both ways, and Range visits Len() entries.
func TestGetBatchMatchesGet(t *testing.T) {
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			s := m.open(t)
			defer s.Close()
			ctx := context.Background()
			const n = 2000
			for i := uint64(0); i < n; i++ {
				if _, err := s.Put(fp(i), Value(i+1)); err != nil {
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
				if stored := id < n && id%10 != 0; ok != stored || (ok && v != Value(id+1)) {
					t.Fatalf("probe %d (key %d) = (%v,%v) after the puts and deletes", i, id, v, ok)
				}
			}
			seen := 0
			if err := s.Range(func(fingerprint.Fingerprint, Value) bool { seen++; return true }); err != nil {
				t.Fatalf("Range: %v", err)
			}
			if want := n - n/10; seen != want || s.Len() != want {
				t.Fatalf("Range visited %d entries, Len = %d, want %d", seen, s.Len(), want)
			}
			// Delete then miss, for every key: nothing the table did while it
			// grew may keep a deleted entry reachable.
			for i := uint64(0); i < n; i++ {
				if _, err := s.Delete(fp(i)); err != nil {
					t.Fatalf("Delete(%d): %v", i, err)
				}
			}
			if _, found, err = s.GetBatch(ctx, fps); err != nil {
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
		})
	}
}

// TestPutBatchMatchesPut checks the write side on two fresh tables: one
// duplicate-heavy PutBatch reports created exactly as the same pairs Put one
// by one do — the first occurrence of a fingerprint creates, later ones
// update — and leaves the same contents.
func TestPutBatchMatchesPut(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pairs := make([]Pair, 500)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(rng.Intn(120))), Val: Value(rng.Intn(1 << 20))}
	}
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			sequential, batched := m.open(t), m.open(t)
			defer sequential.Close()
			defer batched.Close()
			created, _, err := batched.PutBatch(context.Background(), pairs)
			if err != nil {
				t.Fatalf("PutBatch: %v", err)
			}
			for i, p := range pairs {
				if c, err := sequential.Put(p.FP, p.Val); err != nil || created[i] != c {
					t.Fatalf("created[%d] = %v, sequential Put says (%v, %v)", i, created[i], c, err)
				}
			}
			if sequential.Len() != batched.Len() {
				t.Fatalf("Len mismatch: sequential %d, batched %d", sequential.Len(), batched.Len())
			}
			if err := sequential.Range(func(f fingerprint.Fingerprint, v Value) bool {
				if bv, ok, err := batched.Get(f); err != nil || !ok || bv != v {
					t.Errorf("batched Get(%s) = (%v,%v,%v), want (%v,true,nil)", f.Short(), bv, ok, err, v)
				}
				return true
			}); err != nil {
				t.Fatalf("Range: %v", err)
			}
		})
	}
}
