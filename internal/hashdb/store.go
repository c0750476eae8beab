package hashdb

import (
	"context"
	"sync"

	"shhc/internal/fingerprint"
)

// Store is the persistent-index contract the hybrid hash node builds on:
// one interface, with the batch calls as the primitive. The node's SSD
// phase, its destage waves and its journal replay all hand the store a
// whole batch, because that is what lets a paged store pay one file call
// per run of bucket pages instead of one per fingerprint and overlap pages
// up to the device's queue depth; Get and Put serve the node's single-key
// operations. *DB (the on-disk page store), *MemStore (pure RAM) and the
// Failpoint wrapper implement it.
// Implementations must be safe for concurrent use: the striped hybrid node
// issues overlapping probes from every stripe.
// The //shhc:io markers declare every probe and mutation to be I/O for
// the lockio analyzer: call sites dispatch through this interface, so the
// SSD-backed implementation is not statically visible there, and a decorator
// may make any implementation slow (device.Slow). Len is a counter read.
type Store interface {
	// Get returns the value stored for fp.
	Get(fp fingerprint.Fingerprint) (Value, bool, error) //shhc:io
	// Put stores fp -> v, reporting whether a new entry was created.
	Put(fp fingerprint.Fingerprint, v Value) (bool, error) //shhc:io
	// Delete removes fp, reporting whether it was present. Not marked
	// //shhc:io: ctxfirst would then demand a context of core.Node.Remove,
	// whose signature core.Migrator and the frozen benchmark pin.
	Delete(fp fingerprint.Fingerprint) (bool, error)
	// GetBatch looks up every fingerprint, returning values and found
	// flags in input order. A lookup error fails the whole batch. A
	// cancelled ctx stops the batch from issuing further reads (reads
	// already issued complete) and fails it with ctx.Err(). fps
	// belongs to the caller again when GetBatch returns: an implementation
	// must not keep it.
	GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]Value, []bool, error) //shhc:io
	// PutBatch stores every pair, overwriting existing values. created
	// reports, in input order, whether each pair created a new entry
	// (a fingerprint appearing twice in one batch resolves in input
	// order, so the second occurrence is an update). pagesWritten is the
	// number of page writes the batch cost — entry writes for
	// stores without pages — the denominator of the write-coalescing
	// ratio. A store error fails the whole batch. A cancelled ctx stops
	// the batch from issuing I/O for further bucket chains and
	// fails it with ctx.Err(); a chain whose in-memory mutation has
	// finished always writes out completely, so cancellation can strand
	// at most already-allocated (unreferenced) overflow pages, never a
	// torn chain. pairs belongs to the caller again when PutBatch returns:
	// an implementation must not keep it.
	PutBatch(ctx context.Context, pairs []Pair) (created []bool, pagesWritten int, err error) //shhc:io
	// Range calls fn for every entry until fn returns false.
	Range(fn func(fp fingerprint.Fingerprint, v Value) bool) error //shhc:io
	// Len returns the number of stored entries.
	Len() int
	// Sync makes all previous writes durable.
	Sync() error //shhc:io
	// Close releases resources; the store is unusable afterwards.
	Close() error //shhc:io
}

var (
	_ Store = (*DB)(nil)
	_ Store = (*MemStore)(nil)
	_ Store = (*Failpoint)(nil)
)

// memShards is the MemStore shard count (power of two). 64 shards keep
// shard-lock collision probability low through at least ~32 hardware
// threads while costing only 64 small map headers per store.
const memShards = 64

// MemStore is an in-RAM Store: the index of a node without a -dir, and of
// tests that do not want filesystem traffic.
//
// The key space is split over power-of-two map shards, each guarded by its
// own RWMutex, so concurrent probes from different node stripes proceed in
// parallel instead of serializing behind one lock.
type MemStore struct {
	shards [memShards]memShard
	// closed is written under every shard lock and read under any one,
	// so each operation observes it coherently with the shard it locks.
	closed bool
}

type memShard struct {
	mu sync.RWMutex
	m  map[fingerprint.Fingerprint]Value
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	s := &MemStore{}
	for i := range s.shards {
		s.shards[i].m = make(map[fingerprint.Fingerprint]Value)
	}
	return s
}

func (s *MemStore) shard(fp fingerprint.Fingerprint) *memShard {
	return &s.shards[fp.Bucket64()&(memShards-1)]
}

// Get returns the value stored for fp.
func (s *MemStore) Get(fp fingerprint.Fingerprint) (Value, bool, error) {
	sh := s.shard(fp)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed {
		return 0, false, ErrClosed
	}
	v, ok := sh.m[fp]
	return v, ok, nil
}

// Put stores fp -> v, reporting whether a new entry was created.
func (s *MemStore) Put(fp fingerprint.Fingerprint, v Value) (bool, error) {
	sh := s.shard(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	_, existed := sh.m[fp]
	sh.m[fp] = v
	return !existed, nil
}

// GetBatch looks up every fingerprint on the caller's goroutine, one shard
// lock hold for the fingerprints of a shard. Cancelling ctx stops it between
// shards.
func (s *MemStore) GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]Value, []bool, error) {
	vals := make([]Value, len(fps))
	found := make([]bool, len(fps))
	err := s.eachShard(ctx, len(fps), func(i int) fingerprint.Fingerprint { return fps[i] }, false,
		func(m map[fingerprint.Fingerprint]Value, i int32) { vals[i], found[i] = m[fps[i]] })
	if err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}

// PutBatch stores every pair on the caller's goroutine, one shard lock hold
// for the pairs of a shard; pagesWritten is one per entry. Cancelling ctx
// stops it between shards.
func (s *MemStore) PutBatch(ctx context.Context, pairs []Pair) ([]bool, int, error) {
	created := make([]bool, len(pairs))
	err := s.eachShard(ctx, len(pairs), func(i int) fingerprint.Fingerprint { return pairs[i].FP }, true,
		func(m map[fingerprint.Fingerprint]Value, i int32) {
			_, existed := m[pairs[i].FP]
			m[pairs[i].FP] = pairs[i].Val
			created[i] = !existed
		})
	if err != nil {
		return nil, 0, err
	}
	return created, len(pairs), nil
}

// eachShard groups the n keys of a batch by shard and calls fn with each key's
// index, under its shard's lock (the write lock if write) and in input order
// within a shard, which gives PutBatch its in-order duplicates. ctx is
// checked before each shard.
func (s *MemStore) eachShard(ctx context.Context, n int, key func(int) fingerprint.Fingerprint, write bool, fn func(m map[fingerprint.Fingerprint]Value, i int32)) error {
	if n == 0 {
		return nil
	}
	g := getGroupScratch()
	defer putGroupScratch(g)
	g.group(n, nil, memShards, func(i int) uint64 { return key(i).Bucket64() & (memShards - 1) })
	done := ctx.Done()
	for r := 0; r+1 < len(g.starts); r++ {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		run := g.items[g.starts[r]:g.starts[r+1]]
		sh := &s.shards[run[0].key]
		if write {
			sh.mu.Lock()
		} else {
			sh.mu.RLock()
		}
		closed := s.closed
		if !closed {
			for _, it := range run {
				fn(sh.m, it.idx)
			}
		}
		if write {
			sh.mu.Unlock()
		} else {
			sh.mu.RUnlock()
		}
		if closed {
			return ErrClosed
		}
	}
	return nil
}

// Delete removes fp, reporting whether it was present.
func (s *MemStore) Delete(fp fingerprint.Fingerprint) (bool, error) {
	sh := s.shard(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	_, existed := sh.m[fp]
	delete(sh.m, fp)
	return existed, nil
}

// Len returns the number of stored entries. Shards are counted one at a
// time, so the total is loosely consistent under concurrent writes.
func (s *MemStore) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].m)
		s.shards[i].mu.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false. Each shard is
// visited under its own read lock; entries written to an already-visited
// shard during the walk are not observed.
func (s *MemStore) Range(fn func(fp fingerprint.Fingerprint, v Value) bool) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		if s.closed {
			sh.mu.RUnlock()
			return ErrClosed
		}
		for fp, v := range sh.m {
			if !fn(fp, v) {
				sh.mu.RUnlock()
				return nil
			}
		}
		sh.mu.RUnlock()
	}
	return nil
}

// Sync is a no-op for the in-memory store.
func (s *MemStore) Sync() error {
	sh := &s.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}

// Close releases the store.
func (s *MemStore) Close() error {
	for i := range s.shards {
		s.shards[i].mu.Lock()
		defer s.shards[i].mu.Unlock()
	}
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	for i := range s.shards {
		s.shards[i].m = nil
	}
	return nil
}
