package cloudsim

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"shhc/internal/fingerprint"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	data := []byte("chunk contents")
	fp := fingerprint.FromData(data)
	created, err := s.Put(context.Background(), fp, data)
	if err != nil || !created {
		t.Fatalf("Put = (%v, %v), want (true, nil)", created, err)
	}
	got, ok, err := s.Get(context.Background(), fp)
	if err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatalf("Get = (%q, %v, %v)", got, ok, err)
	}
	if ok, _ := s.Has(fp); !ok {
		t.Fatal("Has = false after Put")
	}
}

func TestRedundantPutCounted(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	data := []byte("dup")
	fp := fingerprint.FromData(data)
	s.Put(context.Background(), fp, data)
	created, err := s.Put(context.Background(), fp, data)
	if err != nil || created {
		t.Fatalf("second Put = (%v, %v), want (false, nil)", created, err)
	}
	st := s.Stats()
	if st.Puts != 2 || st.RedundantPuts != 1 || st.Objects != 1 {
		t.Fatalf("stats = %+v, want 2 puts / 1 redundant / 1 object", st)
	}
	if st.Bytes != int64(len(data)) {
		t.Fatalf("Bytes = %d, want %d (no double count)", st.Bytes, len(data))
	}
}

func TestGetAbsent(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	_, ok, err := s.Get(context.Background(), fingerprint.FromUint64(404))
	if err != nil || ok {
		t.Fatalf("Get(absent) = (%v, %v), want (false, nil)", ok, err)
	}
}

func TestCallerCannotMutateStored(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	data := []byte("immutable")
	fp := fingerprint.FromData(data)
	s.Put(context.Background(), fp, data)
	data[0] = 'X' // caller mutates its buffer after Put

	got, _, _ := s.Get(context.Background(), fp)
	if got[0] != 'i' {
		t.Fatal("store shares memory with caller's Put buffer")
	}
	got[0] = 'Y' // mutate the returned copy
	again, _, _ := s.Get(context.Background(), fp)
	if again[0] != 'i' {
		t.Fatal("store shares memory with caller's Get buffer")
	}
}

func TestNetworkCharged(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	data := make([]byte, 8192)
	fp := fingerprint.FromData(data)
	s.Put(context.Background(), fp, data)
	s.Get(context.Background(), fp)

	st := s.Stats().Network
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("network ops = %d writes / %d reads, want 1/1", st.Writes, st.Reads)
	}
	if st.WriteBytes != 8192 {
		t.Fatalf("WriteBytes = %d, want 8192", st.WriteBytes)
	}
	if st.Busy < 40*time.Millisecond {
		t.Fatalf("Busy = %v, want >= 2 RTTs", st.Busy)
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				data := []byte{byte(i), byte(i >> 8)}
				s.Put(context.Background(), fingerprint.FromData(data), data)
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Objects != 200 {
		t.Fatalf("Objects = %d, want 200 (each unique chunk once)", st.Objects)
	}
	if st.Puts != 1600 {
		t.Fatalf("Puts = %d, want 1600", st.Puts)
	}
}

func TestClosedErrors(t *testing.T) {
	s := New(Config{})
	s.Close()
	if _, err := s.Put(context.Background(), fingerprint.FromUint64(1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v, want ErrClosed", err)
	}
	if _, _, err := s.Get(context.Background(), fingerprint.FromUint64(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v, want ErrClosed", err)
	}
	if _, err := s.Has(fingerprint.FromUint64(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Has after close = %v, want ErrClosed", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
}
