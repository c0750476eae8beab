// Negative cases: the disciplined flows the node actually uses.
package a

import (
	"context"
	"os"
)

// ramOnlyUnderStripe touches memory only while the stripe is held and
// does its I/O after the unlock.
func (d *dev) ramOnlyUnderStripe(i int) error {
	s := &d.shards[i]
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return d.flush()
}

// markedInterfaceIOAfterUnlock is the node's batch shape: the RAM walk
// under the stripe, the store's batch call once it is released.
func (d *dev) markedInterfaceIOAfterUnlock(ctx context.Context, i int, keys []uint64) (int, error) {
	s := &d.shards[i]
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return d.st.putBatch(ctx, keys)
}

// ioUnderCoordinator is allowed: d.mu is not RAM-only, only ordered.
func (d *dev) ioUnderCoordinator() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return os.ReadFile(d.path)
}

// correctOrder takes the coordinator first, then a stripe.
func (d *dev) correctOrder(i int) {
	d.mu.Lock()
	s := &d.shards[i]
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	d.mu.Unlock()
}

// goroutineNotCharged: a body launched with go runs after the region.
func (d *dev) goroutineNotCharged(i int) {
	s := &d.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { _ = d.flush() }()
	s.hits++
}

// ioAfterGuardAndUnlock is the guard's shape done right: the path that
// goes on unlocks before its I/O.
func (d *dev) ioAfterGuardAndUnlock(i int, closed bool) error {
	s := &d.shards[i]
	s.mu.Lock()
	if closed {
		s.mu.Unlock()
		return nil
	}
	s.hits++
	s.mu.Unlock()
	return d.flush()
}

// takeOne holds the stripe across its loop; the one way out is a break
// that unlocks first, so the I/O after the loop runs unlocked.
func (d *dev) takeOne(i int) error {
	s := &d.shards[i]
	s.mu.Lock()
	for {
		if s.hits > 0 {
			s.hits--
			s.mu.Unlock()
			break
		}
		s.hits++
	}
	return d.flush()
}
