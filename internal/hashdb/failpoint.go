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
//   - FailFile wraps a backing File and kills it at the Nth *file* write,
//     optionally letting a prefix of the killing write reach the file — a
//     torn page. Open a DB over it with OpenFile to exercise the
//     recovery pass against every partial-write shape.
//
// Both trip exactly once and report death as ErrKilled from every
// subsequent operation.

import (
	"context"
	"errors"
	"os"
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

// Inner returns the wrapped store (the durable state after a kill).
func (f *Failpoint) Inner() Store { return f.inner }

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

// FailFile wraps a backing File, killing it at the Nth file write with
// the first Partial bytes of the killing write applied (a torn write).
// Reads keep working after the kill only so the harness can inspect state;
// a reopened DB should use a fresh os.File on the same path.
type FailFile struct {
	f File
	// Partial is how many leading bytes of the killing write reach the
	// file (clamped to the write's length). 0 models an atomic device
	// that simply never performed the write.
	partial   int
	remaining atomic.Int64
	killed    atomic.Bool
	initial   int64
}

// NewFailFile wraps f, killing the killAfterWrites-th WriteAt (1 kills
// the first) after letting partial bytes of it through.
func NewFailFile(f File, killAfterWrites int64, partial int) *FailFile {
	ff := &FailFile{f: f, partial: partial, initial: killAfterWrites}
	ff.remaining.Store(killAfterWrites)
	return ff
}

// Killed reports whether the failpoint has tripped.
func (f *FailFile) Killed() bool { return f.killed.Load() }

// Writes reports how many file writes have been issued (including the
// killing one).
func (f *FailFile) Writes() int64 { return f.initial - f.remaining.Load() }

// ReadAt reads from the underlying file.
func (f *FailFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

// WriteAt writes to the underlying file unless this is the killing write,
// in which case only the torn prefix lands.
func (f *FailFile) WriteAt(p []byte, off int64) (int, error) {
	if f.killed.Load() {
		return 0, ErrKilled
	}
	if f.remaining.Add(-1) <= 0 {
		f.killed.Store(true)
		n := f.partial
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			f.f.WriteAt(p[:n], off)
		}
		return 0, ErrKilled
	}
	return f.f.WriteAt(p, off)
}

// Truncate resizes the underlying file; a dead file cannot.
func (f *FailFile) Truncate(size int64) error {
	if f.killed.Load() {
		return ErrKilled
	}
	return f.f.Truncate(size)
}

// Stat forwards to the underlying file.
func (f *FailFile) Stat() (os.FileInfo, error) { return f.f.Stat() }

// Sync flushes the underlying file; a dead file cannot.
func (f *FailFile) Sync() error {
	if f.killed.Load() {
		return ErrKilled
	}
	return f.f.Sync()
}

// Close closes the underlying file (the harness needs the fd released to
// reopen the path).
func (f *FailFile) Close() error { return f.f.Close() }

var _ File = (*FailFile)(nil)
