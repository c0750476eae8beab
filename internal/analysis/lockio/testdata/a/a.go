// Package a models the node's two-level locking: a coordinator lock
// (rank 1) ordered before RAM-only stripe locks (rank 2), with I/O
// forbidden under the stripes.
package a

import (
	"context"
	"os"
	"sync"
)

type shard struct {
	mu   sync.Mutex //shhc:lock ramonly rank=2
	hits int
}

// store is reached only through its interface, as the node reaches
// hashdb.Store: no implementation is visible at the call site, so the
// marker on the method is all that says the call is I/O.
type store interface {
	putBatch(ctx context.Context, keys []uint64) (int, error) //shhc:io
}

type dev struct {
	mu     sync.Mutex //shhc:lock rank=1
	shards [4]shard
	path   string
	st     store
}

// ioUnderStripe reads the device while a RAM-only stripe lock is held.
func (d *dev) ioUnderStripe(i int) ([]byte, error) {
	s := &d.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits++
	return os.ReadFile(d.path) // want `may perform I/O while s\.mu \(//shhc:lock ramonly\) is held`
}

// transitiveIO reaches the filesystem through a helper: the ioflow facts
// must carry the taint across the call.
func (d *dev) transitiveIO(i int) error {
	s := &d.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return d.flush() // want `may perform I/O while s\.mu \(//shhc:lock ramonly\) is held`
}

func (d *dev) flush() error {
	return os.WriteFile(d.path, nil, 0o644)
}

// markedInterfaceIO calls a //shhc:io interface method under the stripe.
func (d *dev) markedInterfaceIO(ctx context.Context, i int, keys []uint64) (int, error) {
	s := &d.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return d.st.putBatch(ctx, keys) // want `may perform I/O while s\.mu \(//shhc:lock ramonly\) is held`
}

// rankInversion acquires the rank-1 coordinator lock while already
// holding a rank-2 stripe — the declared order is d.mu before shards.
func (d *dev) rankInversion(i int) {
	s := &d.shards[i]
	s.mu.Lock()
	d.mu.Lock() // want `acquiring d\.mu \(rank 1\) while holding s\.mu \(rank 2\) violates the declared lock order`
	d.mu.Unlock()
	s.mu.Unlock()
}
