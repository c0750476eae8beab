package hashdb

import (
	"errors"
	"os"
	"testing"

	"shhc/internal/fingerprint"
)

// osWriteFile indirection keeps hashdb_test.go free of an os import cycle
// concern and gives one place to adjust permissions.
func osWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	defer s.Close()

	created, err := s.Put(fp(1), 11)
	if err != nil || !created {
		t.Fatalf("Put = (%v, %v), want (true, nil)", created, err)
	}
	created, err = s.Put(fp(1), 12)
	if err != nil || created {
		t.Fatalf("overwrite Put = (%v, %v), want (false, nil)", created, err)
	}
	v, ok, err := s.Get(fp(1))
	if err != nil || !ok || v != 12 {
		t.Fatalf("Get = (%v, %v, %v), want (12, true, nil)", v, ok, err)
	}
	if _, ok, _ := s.Get(fp(2)); ok {
		t.Fatal("Get(absent) found an entry")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestMemStoreDelete(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	s.Put(fp(1), 1)
	if ok, _ := s.Delete(fp(1)); !ok {
		t.Fatal("Delete(present) = false")
	}
	if ok, _ := s.Delete(fp(1)); ok {
		t.Fatal("Delete(absent) = true")
	}
}

func TestMemStoreRange(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	for i := uint64(0); i < 50; i++ {
		s.Put(fp(i), Value(i))
	}
	seen := 0
	s.Range(func(f fingerprint.Fingerprint, v Value) bool {
		seen++
		return true
	})
	if seen != 50 {
		t.Fatalf("Range visited %d, want 50", seen)
	}
}

func TestMemStoreClosed(t *testing.T) {
	s := NewMemStore()
	s.Close()
	if _, _, err := s.Get(fp(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v, want ErrClosed", err)
	}
	if _, err := s.Put(fp(1), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v, want ErrClosed", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close = %v, want ErrClosed", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
}

// openRW opens a database file raw for corruption injection in tests.
func openRW(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR, 0)
}
