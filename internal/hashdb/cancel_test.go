package hashdb

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shhc/internal/fingerprint"
)

// sleepFile is a slow device under a table: a call sleeps read or write for
// every page it moves, a header as one page.
type sleepFile struct {
	File
	read, write time.Duration
}

func (f sleepFile) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(time.Duration((len(p)+PageSize-1)/PageSize) * f.read)
	return f.File.ReadAt(p, off)
}

func (f sleepFile) WriteAt(p []byte, off int64) (int, error) {
	time.Sleep(time.Duration((len(p)+PageSize-1)/PageSize) * f.write)
	return f.File.WriteAt(p, off)
}

// TestCancelGetBatchStopsDeviceReads: a context that expires mid-batch
// stops the table from issuing further page reads — reads in flight
// complete, the rest are abandoned — and the batch fails with the
// context's error. The batch's 512 keys lie in a table of 4 096 buckets, a
// page read a key, so no one call moves more than a few pages.
func TestCancelGetBatchStopsDeviceReads(t *testing.T) {
	t.Run("db", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cancel.shdb")
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		s, err := CreateFile(sleepFile{File: f, read: 10 * time.Millisecond}, path, Options{Buckets: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		const batch = 512
		fps := make([]fingerprint.Fingerprint, batch)
		for i := range fps {
			fps[i] = fingerprint.FromUint64(uint64(i))
		}

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, _, err = s.GetBatch(ctx, fps)
		elapsed := time.Since(start)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled GetBatch = %v, want context.DeadlineExceeded", err)
		}
		// 512 page reads at 10ms over 16-way parallelism is >300ms of
		// sleep; the 20ms deadline must abandon most of it.
		if elapsed > 250*time.Millisecond {
			t.Fatalf("cancelled GetBatch took %v; device reads were not abandoned", elapsed)
		}
		if reads := s.Stats().Device.Reads; reads >= batch {
			t.Fatalf("cancelled GetBatch read %d pages, want fewer than its %d keys", reads, batch)
		}

		// The store remains usable.
		if _, _, err := s.GetBatch(context.Background(), fps[:4]); err != nil {
			t.Fatalf("GetBatch after cancellation: %v", err)
		}
	})
}

// TestCancelGetBatchAlreadyExpired: an already-dead context reads nothing
// and answers nothing.
func TestCancelGetBatchAlreadyExpired(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fps := []fingerprint.Fingerprint{fingerprint.FromUint64(1), fingerprint.FromUint64(2)}
	db := newTestDB(t, Options{})
	before := db.Stats().Device.Reads
	if _, _, err := db.GetBatch(ctx, fps); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired GetBatch = %v, want context.Canceled", err)
	}
	if n := db.Stats().Device.Reads - before; n != 0 {
		t.Fatalf("expired GetBatch read %d pages, want 0", n)
	}
}
