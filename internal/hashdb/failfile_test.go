package hashdb

import (
	"os"
	"sync/atomic"
)

// FailFile wraps a backing File, killing it at the Nth page written with
// the first Partial bytes of the killing page applied (a torn write). A write
// counts one page per PageSize bytes or part of them, so a write of several
// pages dies on its Nth page as a process killed inside pwrite leaves it:
// every page before that one written, then the torn prefix.
// Reads keep working after the kill only so the harness can inspect state;
// a reopened DB should use a fresh os.File on the same path.
type FailFile struct {
	f File
	// Partial is how many leading bytes of the killing page reach the
	// file (clamped to the page's length). 0 models an atomic device
	// that simply never performed the write.
	partial   int
	remaining atomic.Int64
	killed    atomic.Bool
	initial   int64
}

// NewFailFile wraps f, killing it at the killAfterWrites-th page written (1
// kills the first) after letting partial bytes of that page through.
func NewFailFile(f File, killAfterWrites int64, partial int) *FailFile {
	ff := &FailFile{f: f, partial: partial, initial: killAfterWrites}
	ff.remaining.Store(killAfterWrites)
	return ff
}

// Writes reports how many pages have been written (including the killing
// one).
func (f *FailFile) Writes() int64 { return f.initial - f.remaining.Load() }

// ReadAt reads from the underlying file.
func (f *FailFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

// WriteAt writes to the underlying file unless the killing page is among
// p's, in which case only the pages before it and its torn prefix land.
func (f *FailFile) WriteAt(p []byte, off int64) (int, error) {
	if f.killed.Load() {
		return 0, ErrKilled
	}
	pages := int64(max(1, (len(p)+PageSize-1)/PageSize))
	left := f.remaining.Add(-pages) + pages // pages left before this write
	if left > pages {
		return f.f.WriteAt(p, off)
	}
	f.killed.Store(true)
	if left > 0 { // the left-th page of p is the killing one: the pages after it were never written
		f.remaining.Add(pages - left)
		at := int(left-1) * PageSize
		if n := at + min(f.partial, PageSize, len(p)-at); n > 0 {
			f.f.WriteAt(p[:n], off)
		}
	}
	return 0, ErrKilled
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
