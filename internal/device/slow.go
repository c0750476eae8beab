package device

import (
	"context"
	"sync/atomic"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/parallel"
)

// SlowStore is a hashdb.Store behind a modeled device: each Get, Put,
// GetBatch and PutBatch sleeps the model's service time for the call before
// it asks the inner store. A single-key call costs one 4 KiB read or write
// latency; a batch of n keys costs ⌈n / parallel.IODepth⌉ of them, the keys
// served parallel.IODepth at a time, as by a device with that queue depth.
// One sleep a call keeps a model of tens of microseconds a page meaningful:
// a sleep shorter than about a millisecond is rounded up by the runtime's
// timer resolution on some hosts.
//
// A batch whose ctx ends during its sleep returns ctx.Err() without reaching
// the inner store. Delete, Range, Len, Sync and Close pass straight through.
type SlowStore struct {
	hashdb.Store
	model       Model
	calls, keys atomic.Int64
}

// Slow returns s behind a device that follows m.
func Slow(s hashdb.Store, m Model) *SlowStore { return &SlowStore{Store: s, model: m} }

// Passed returns how many sleeping calls reached the inner store and how many
// keys they carried.
func (s *SlowStore) Passed() (calls, keys int64) { return s.calls.Load(), s.keys.Load() }

// wait sleeps the service time of n keys at per a queue-depth's worth, or
// until ctx ends, and counts the call as passed on when it does not.
func (s *SlowStore) wait(ctx context.Context, n int, per time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d := time.Duration((n+parallel.IODepth-1)/parallel.IODepth) * per; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	s.calls.Add(1)
	s.keys.Add(int64(n))
	return nil
}

// Get sleeps one read latency, then looks fp up.
func (s *SlowStore) Get(fp fingerprint.Fingerprint) (hashdb.Value, bool, error) {
	s.wait(context.Background(), 1, s.model.ReadLatency(hashdb.PageSize))
	return s.Store.Get(fp)
}

// Put sleeps one write latency, then stores fp -> v.
func (s *SlowStore) Put(fp fingerprint.Fingerprint, v hashdb.Value) (bool, error) {
	s.wait(context.Background(), 1, s.model.WriteLatency(hashdb.PageSize))
	return s.Store.Put(fp, v)
}

// GetBatch sleeps the batch's read service time, then looks fps up.
func (s *SlowStore) GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]hashdb.Value, []bool, error) {
	if err := s.wait(ctx, len(fps), s.model.ReadLatency(hashdb.PageSize)); err != nil {
		return nil, nil, err
	}
	return s.Store.GetBatch(ctx, fps)
}

// PutBatch sleeps the batch's write service time, then stores pairs.
func (s *SlowStore) PutBatch(ctx context.Context, pairs []hashdb.Pair) ([]bool, int, error) {
	if err := s.wait(ctx, len(pairs), s.model.WriteLatency(hashdb.PageSize)); err != nil {
		return nil, 0, err
	}
	return s.Store.PutBatch(ctx, pairs)
}
