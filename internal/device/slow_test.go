package device

import (
	"context"
	"errors"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

func slowKeys(n int) []fingerprint.Fingerprint {
	fps := make([]fingerprint.Fingerprint, n)
	for i := range fps {
		fps[i] = fingerprint.FromUint64(uint64(i))
	}
	return fps
}

// TestSlowStoreSleepsOnceACall: a batch of n keys sleeps ⌈n/16⌉ latencies of
// its kind before it reaches the store, a single-key call one, and every
// call that reaches the store is counted with its keys.
func TestSlowStoreSleepsOnceACall(t *testing.T) {
	const lat = 5 * time.Millisecond
	s := Slow(hashdb.NewMemStore(), Model{Name: "slow", ReadBase: lat, WriteBase: 2 * lat})
	defer s.Close()
	ctx := context.Background()
	for _, c := range []struct {
		name string
		call func() error
		min  time.Duration
		keys int64
	}{
		{"PutBatch of 33", func() error {
			pairs := make([]hashdb.Pair, 33)
			for i, fp := range slowKeys(33) {
				pairs[i] = hashdb.Pair{FP: fp, Val: hashdb.Value(i)}
			}
			_, _, err := s.PutBatch(ctx, pairs)
			return err
		}, 3 * 2 * lat, 33},
		{"GetBatch of 16", func() error { _, _, err := s.GetBatch(ctx, slowKeys(16)); return err }, lat, 16},
		{"Get", func() error { _, _, err := s.Get(fingerprint.FromUint64(1)); return err }, lat, 1},
		{"Put", func() error { _, err := s.Put(fingerprint.FromUint64(1), 1); return err }, 2 * lat, 1},
	} {
		calls, keys := s.Passed()
		start := time.Now()
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if took := time.Since(start); took < c.min {
			t.Errorf("%s took %v, want at least %v", c.name, took, c.min)
		}
		if c2, k2 := s.Passed(); c2 != calls+1 || k2 != keys+c.keys {
			t.Errorf("%s: passed %d calls, %d keys; want 1, %d", c.name, c2-calls, k2-keys, c.keys)
		}
	}
	if v, ok, err := s.Get(fingerprint.FromUint64(32)); err != nil || !ok || v != 32 {
		t.Fatalf("Get through the decorator = %v, %v, %v; want 32", v, ok, err)
	}
}

// TestSlowStoreCancelNeverReachesStore: a batch whose context ends during its
// sleep fails with the context's error at once, and the store never sees it;
// an already-dead context does not sleep at all. The store stays usable.
func TestSlowStoreCancelNeverReachesStore(t *testing.T) {
	s := Slow(hashdb.NewMemStore(), Model{Name: "slow", ReadBase: 10 * time.Millisecond})
	defer s.Close()
	fps := slowKeys(512) // 32 latencies: 320 ms

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := s.GetBatch(ctx, fps)
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > 250*time.Millisecond {
		t.Fatalf("cancelled GetBatch = %v after %v, want context.DeadlineExceeded well before 320ms", err, took)
	}
	dead, kill := context.WithCancel(context.Background())
	kill()
	start = time.Now()
	if _, _, err := s.PutBatch(dead, []hashdb.Pair{{FP: fps[0], Val: 1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired PutBatch = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 5*time.Millisecond {
		t.Fatalf("expired PutBatch slept %v", took)
	}
	if calls, keys := s.Passed(); calls != 0 || keys != 0 || s.Len() != 0 {
		t.Fatalf("cancelled calls reached the store: %d calls, %d keys, %d entries", calls, keys, s.Len())
	}
	if _, _, err := s.GetBatch(context.Background(), fps[:4]); err != nil {
		t.Fatalf("GetBatch after cancellation: %v", err)
	}
}
