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

// ioAfterReturnGuard is the node-stripe walk's shape: a guard that
// unlocks and returns leaves the lock held on the path that goes on.
func (d *dev) ioAfterReturnGuard(i int, closed bool) error {
	s := &d.shards[i]
	s.mu.Lock()
	if closed {
		s.mu.Unlock()
		return nil
	}
	err := d.flush() // want `may perform I/O while s\.mu \(//shhc:lock ramonly\) is held`
	s.mu.Unlock()
	return err
}

// ioAfterSwitchGuard leaves by return and by panic in two clauses.
func (d *dev) ioAfterSwitchGuard(i, mode int) error {
	s := &d.shards[i]
	s.mu.Lock()
	switch mode {
	case 0:
		s.mu.Unlock()
		return nil
	case 1:
		s.mu.Unlock()
		panic("bad mode")
	}
	err := d.flush() // want `may perform I/O while s\.mu \(//shhc:lock ramonly\) is held`
	s.mu.Unlock()
	return err
}

// ioAfterSelectGuard leaves by return when done is closed.
func (d *dev) ioAfterSelectGuard(i int, done <-chan struct{}) error {
	s := &d.shards[i]
	s.mu.Lock()
	select {
	case <-done:
		s.mu.Unlock()
		return nil
	default:
	}
	err := d.flush() // want `may perform I/O while s\.mu \(//shhc:lock ramonly\) is held`
	s.mu.Unlock()
	return err
}

// ioAfterContinue skips an idle shard; the busy one goes on locked.
func (d *dev) ioAfterContinue(n int) {
	for i := 0; i < n; i++ {
		s := &d.shards[i%len(d.shards)]
		s.mu.Lock()
		if s.hits == 0 {
			s.mu.Unlock()
			continue
		}
		d.flush() // want `may perform I/O while s\.mu \(//shhc:lock ramonly\) is held`
		s.mu.Unlock()
	}
}
