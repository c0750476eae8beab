package hashdb

import (
	"io"
	"io/fs"
	"sync"
	"time"
)

// MemFile is a File held in memory: the table of a node that keeps nothing
// on disk is the same table over a MemFile. A page never written reads as
// zeros and costs nothing, so a new table's bucket region is free until it
// fills. Sync does nothing and Close keeps the contents, so OpenFile over
// the same MemFile is a process restarting on its file. The zero value is
// an empty file. Safe for concurrent use.
type MemFile struct {
	mu    sync.RWMutex
	pages [][]byte // PageSize bytes each; nil reads as zeros
	size  int64
}

// CreateMem creates a table over f, a new MemFile if f is nil; a test
// reopens f with OpenFile to restart a node on what its table left. A
// MemFile's calls cannot fail, so neither can it.
func CreateMem(f *MemFile, opts Options) *DB {
	if f == nil {
		f = &MemFile{}
	}
	db, err := CreateFile(f, "", opts)
	if err != nil {
		panic(err)
	}
	return db
}

// ReadAt reads len(p) bytes at off, io.EOF past the end.
func (f *MemFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := int(max(0, min(int64(len(p)), f.size-off)))
	for done := 0; done < n; {
		pg, in := (off+int64(done))/PageSize, int((off+int64(done))%PageSize)
		c := min(n-done, PageSize-in)
		if pg < int64(len(f.pages)) && f.pages[pg] != nil {
			copy(p[done:done+c], f.pages[pg][in:])
		} else {
			clear(p[done : done+c])
		}
		done += c
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt writes p at off, growing the file past its end.
func (f *MemFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if last := int((off + int64(len(p)) + PageSize - 1) / PageSize); last > len(f.pages) {
		f.pages = append(f.pages, make([][]byte, last-len(f.pages))...)
	}
	for done := 0; done < len(p); {
		pg, in := (off+int64(done))/PageSize, int((off+int64(done))%PageSize)
		if f.pages[pg] == nil {
			f.pages[pg] = make([]byte, PageSize)
		}
		done += copy(f.pages[pg][in:], p[done:])
	}
	f.size = max(f.size, off+int64(len(p)))
	return len(p), nil
}

// Truncate sets the file's size; what it cuts reads as zeros if the file
// grows again.
func (f *MemFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if keep := int((size + PageSize - 1) / PageSize); keep < len(f.pages) {
		clear(f.pages[keep:])
		f.pages = f.pages[:keep]
	}
	if pg := size / PageSize; size%PageSize != 0 && pg < int64(len(f.pages)) && f.pages[pg] != nil {
		clear(f.pages[pg][size%PageSize:])
	}
	f.size = size
	return nil
}

// Stat reports the file's size.
func (f *MemFile) Stat() (fs.FileInfo, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return memInfo(f.size), nil
}

// Sync does nothing: there is nothing under memory to flush to.
func (f *MemFile) Sync() error { return nil }

// Close keeps the contents for the next OpenFile.
func (f *MemFile) Close() error { return nil }

// memInfo is a MemFile's fs.FileInfo: its size, and nothing else.
type memInfo int64

func (i memInfo) Name() string       { return "" }
func (i memInfo) Size() int64        { return int64(i) }
func (i memInfo) Mode() fs.FileMode  { return 0o600 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
