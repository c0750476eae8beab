package hashdb

import (
	"context"
	"errors"
	"testing"
	"time"

	"shhc/internal/device"
	"shhc/internal/fingerprint"
)

// TestCancelGetBatchStopsDeviceReads: a context that expires mid-batch
// stops the store from issuing further device reads — reads in flight
// complete, the rest are abandoned — and the batch fails with the
// context's error.
func TestCancelGetBatchStopsDeviceReads(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(*device.Device) Store
	}{
		{"mem", func(d *device.Device) Store { return NewMemStore(d) }},
		{"db", func(d *device.Device) Store {
			db, err := Create(t.TempDir()+"/cancel.shdb", Options{Device: d})
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			return db
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := device.New(device.Model{Name: "slow", ReadBase: 10 * time.Millisecond}, device.Sleep)
			s := tc.store(dev)
			defer s.Close()

			const batch = 512
			fps := make([]fingerprint.Fingerprint, batch)
			for i := range fps {
				fps[i] = fingerprint.FromUint64(uint64(i))
			}

			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, _, err := s.GetBatch(ctx, fps)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("cancelled GetBatch = %v, want context.DeadlineExceeded", err)
			}
			// 512 probes at 10ms over 16-way parallelism is >300ms of
			// modeled sleep; the 20ms deadline must abandon most of it.
			if elapsed > 250*time.Millisecond {
				t.Fatalf("cancelled GetBatch took %v; device reads were not abandoned", elapsed)
			}

			// The store remains usable.
			if _, _, err := s.GetBatch(context.Background(), fps[:4]); err != nil {
				t.Fatalf("GetBatch after cancellation: %v", err)
			}
		})
	}
}

// TestCancelGetBatchAlreadyExpired: an already-dead context issues no
// device reads at all.
func TestCancelGetBatchAlreadyExpired(t *testing.T) {
	dev := device.New(device.Model{Name: "slow", ReadBase: time.Millisecond}, device.Account)
	s := NewMemStore(dev)
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fps := []fingerprint.Fingerprint{fingerprint.FromUint64(1), fingerprint.FromUint64(2)}
	if _, _, err := s.GetBatch(ctx, fps); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired GetBatch = %v, want context.Canceled", err)
	}
	if reads := dev.Stats().Reads; reads != 0 {
		t.Fatalf("expired GetBatch issued %d device reads, want 0", reads)
	}
}
