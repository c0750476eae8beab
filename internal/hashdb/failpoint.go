package hashdb

// Failure injection for crash-consistency testing. Two granularities:
//
//   - Failpoint wraps a Store and kills it at the Nth *entry* write,
//     simulating a node process dying mid-schedule: the killing write (and
//     everything after it) never reaches the wrapped store, so the store's
//     contents are exactly the durable state at the instant of death.
//     Batched writes die mid-batch with a prefix applied, the crash shape
//     the destager's group-commit waves produce.
//
//   - FailFile, in this package's tests, wraps a backing File and kills it
//     at the Nth *page* written, optionally letting a prefix of the killing
//     page reach the file — a torn page. The crash tests open a DB over it
//     to exercise the recovery pass against every partial-write shape.
//
// Both trip exactly once and report death as ErrKilled from every
// subsequent operation.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"shhc/internal/fingerprint"
)

// ErrKilled is returned by every operation on a store or file a failpoint
// has killed.
var ErrKilled = errors.New("hashdb: failpoint: killed")

// Failpoint wraps a Store, killing it at the Nth entry write, so it is a
// drop-in stand-in for any store under the hybrid node.
type Failpoint struct {
	inner Store

	// remaining is the number of entry writes left before the kill; the
	// write that decrements it to zero is the one that dies (it does not
	// reach the wrapped store).
	remaining atomic.Int64
	killed    atomic.Bool

	// onKill, if set, runs exactly once, synchronously, at the moment the
	// failpoint trips — before the killing operation returns. Harnesses
	// use it to snapshot external durable state (e.g. a journal file) at
	// the instant of death.
	onKill     func()
	onKillOnce sync.Once
	initial    int64
}

// NewFailpoint wraps inner, killing it at the killAfterWrites-th entry
// write (1 kills the very first write). onKill may be nil.
func NewFailpoint(inner Store, killAfterWrites int64, onKill func()) *Failpoint {
	fp := &Failpoint{inner: inner, onKill: onKill, initial: killAfterWrites}
	fp.remaining.Store(killAfterWrites)
	return fp
}

// Killed reports whether the failpoint has tripped.
func (f *Failpoint) Killed() bool { return f.killed.Load() }

// Kill trips the failpoint immediately — as if the Nth-write trigger had
// just fired — for harnesses that want to die at a wall-clock instant
// (e.g. mid-churn) rather than a write count.
func (f *Failpoint) Kill() { f.trip() }

// Writes reports how many entry writes the store has seen (including the
// killing one). Harnesses probe a schedule's total with a distant kill
// point, then iterate every kill point up to it.
func (f *Failpoint) Writes() int64 { return f.initial - f.remaining.Load() }

// trip marks the store dead and fires the kill hook.
func (f *Failpoint) trip() {
	f.killed.Store(true)
	f.onKillOnce.Do(func() {
		if f.onKill != nil {
			f.onKill()
		}
	})
}

// consume accounts one entry write, reporting whether it may proceed.
func (f *Failpoint) consume() bool {
	if f.killed.Load() {
		return false
	}
	if f.remaining.Add(-1) <= 0 {
		f.trip()
		return false
	}
	return true
}

// Get returns the value stored for fp.
func (f *Failpoint) Get(fp fingerprint.Fingerprint) (Value, bool, error) {
	if f.killed.Load() {
		return 0, false, ErrKilled
	}
	return f.inner.Get(fp)
}

// GetBatch forwards to the inner store's batched read path.
func (f *Failpoint) GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]Value, []bool, error) {
	if f.killed.Load() {
		return nil, nil, ErrKilled
	}
	return f.inner.GetBatch(ctx, fps)
}

// Put stores fp -> v unless this is the killing write.
func (f *Failpoint) Put(fp fingerprint.Fingerprint, v Value) (bool, error) {
	if !f.consume() {
		return false, ErrKilled
	}
	return f.inner.Put(fp, v)
}

// PutBatch stores the pairs, dying mid-batch with a prefix applied when
// the kill point falls inside the batch: the prefix goes through per-key
// writes so exactly the entries before the kill reach the store.
func (f *Failpoint) PutBatch(ctx context.Context, pairs []Pair) ([]bool, int, error) {
	if f.killed.Load() {
		return nil, 0, ErrKilled
	}
	if rem := f.remaining.Load(); rem > int64(len(pairs)) {
		created, pages, err := f.inner.PutBatch(ctx, pairs)
		if err == nil {
			f.remaining.Add(-int64(len(pairs)))
		}
		return created, pages, err
	}
	created := make([]bool, len(pairs))
	writes := 0
	for i, p := range pairs {
		if !f.consume() {
			return nil, writes, ErrKilled
		}
		c, err := f.inner.Put(p.FP, p.Val)
		if err != nil {
			return nil, writes, err
		}
		created[i] = c
		writes++
	}
	return created, writes, nil
}

// Delete removes fp; a delete is a write and can be the killing one.
func (f *Failpoint) Delete(fp fingerprint.Fingerprint) (bool, error) {
	if !f.consume() {
		return false, ErrKilled
	}
	return f.inner.Delete(fp)
}

// Range forwards enumeration to the inner store.
func (f *Failpoint) Range(fn func(fp fingerprint.Fingerprint, v Value) bool) error {
	if f.killed.Load() {
		return ErrKilled
	}
	return f.inner.Range(fn)
}

// Len returns the number of stored entries.
func (f *Failpoint) Len() int { return f.inner.Len() }

// Sync makes previous writes durable; a dead store cannot.
func (f *Failpoint) Sync() error {
	if f.killed.Load() {
		return ErrKilled
	}
	return f.inner.Sync()
}

// Close closes the wrapped store — unless the failpoint tripped: a dead
// process never closes anything, and the harness reopens the inner store
// as the surviving durable state.
func (f *Failpoint) Close() error {
	if f.killed.Load() {
		return ErrKilled
	}
	return f.inner.Close()
}
