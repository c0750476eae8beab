package simtest

import (
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// File is the backing file a table writes through. It names only standard
// library types, so hashdb.File satisfies it and simtest imports nothing of
// the table it kills.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Sync() error
	Close() error
}

// ErrKilled is what every call on a FaultFile returns once it died, Close
// aside.
var ErrKilled = errors.New("simtest: killed")

// FaultFile kills the file it wraps at the Nth page written, letting the
// first tear bytes of that page reach the file: a torn write, or with tear 0
// a device that never performed the write. A write counts one page per page
// size or part of one, so a write of several pages dies on its Nth page as a
// process killed inside pwrite leaves it: every page before that one
// written, then the torn prefix. What the wrapped file holds afterwards is
// the durable state at the instant of death; reopen it, not the FaultFile.
type FaultFile struct {
	f         File
	pageSize  int
	tear      int
	initial   int64
	remaining atomic.Int64
	killed    atomic.Bool
	once      sync.Once
	// OnKill, if set before the first write, runs once, synchronously, when
	// the file dies, before the killing call returns: what a harness
	// snapshots there (a journal) is what the death left behind.
	OnKill func()
}

// NewFaultFile wraps f, whose pages are pageSize bytes, killing it at the
// kill-th page written (1 kills the first) after tear bytes of that page.
func NewFaultFile(f File, pageSize int, kill int64, tear int) *FaultFile {
	ff := &FaultFile{f: f, pageSize: pageSize, tear: tear, initial: kill}
	ff.remaining.Store(kill)
	return ff
}

// Kill kills the file now, between two writes: a process dying at a
// wall-clock instant rather than at a write.
func (f *FaultFile) Kill() {
	f.killed.Store(true)
	f.once.Do(func() {
		if f.OnKill != nil {
			f.OnKill()
		}
	})
}

// Killed reports whether the file died.
func (f *FaultFile) Killed() bool { return f.killed.Load() }

// Writes reports how many pages have been written, the killing one
// included. A probe runs a schedule over a kill point out of reach and reads
// it, so a sweep knows every point there is.
func (f *FaultFile) Writes() int64 { return f.initial - f.remaining.Load() }

// ReadAt reads from the wrapped file until the kill.
func (f *FaultFile) ReadAt(p []byte, off int64) (int, error) {
	if f.killed.Load() {
		return 0, ErrKilled
	}
	return f.f.ReadAt(p, off)
}

// WriteAt writes to the wrapped file unless the killing page is among p's,
// in which case only the pages before it and its torn prefix land.
func (f *FaultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.killed.Load() {
		return 0, ErrKilled
	}
	ps := f.pageSize
	pages := int64(max(1, (len(p)+ps-1)/ps))
	left := f.remaining.Add(-pages) + pages // pages left before this write
	if left > pages {
		return f.f.WriteAt(p, off)
	}
	if left > 0 { // the left-th page of p is the killing one: the pages after it were never written
		f.remaining.Add(pages - left)
		at := int(left-1) * ps
		if n := at + min(f.tear, ps, len(p)-at); n > 0 {
			f.f.WriteAt(p[:n], off)
		}
	}
	f.Kill()
	return 0, ErrKilled
}

// Truncate resizes the wrapped file until the kill.
func (f *FaultFile) Truncate(size int64) error {
	if f.killed.Load() {
		return ErrKilled
	}
	return f.f.Truncate(size)
}

// Stat reports on the wrapped file until the kill.
func (f *FaultFile) Stat() (os.FileInfo, error) {
	if f.killed.Load() {
		return nil, ErrKilled
	}
	return f.f.Stat()
}

// Sync flushes the wrapped file until the kill.
func (f *FaultFile) Sync() error {
	if f.killed.Load() {
		return ErrKilled
	}
	return f.f.Sync()
}

// Close closes the wrapped file, dead or not: the harness needs an os.File's
// descriptor released to reopen its path.
func (f *FaultFile) Close() error { return f.f.Close() }
