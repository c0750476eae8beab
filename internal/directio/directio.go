// Package directio is a direct-I/O file backend for the SSD hash table:
// an os.File wrapper satisfying hashdb.File whose reads and writes bypass
// the OS page cache via O_DIRECT, the configuration the paper measures
// (the SSD's own latency, not the kernel's RAM).
//
// O_DIRECT imposes alignment rules: file offset, transfer length, and the
// user memory buffer must all be multiples of the device's logical block
// size. The wrapper hides them behind the ordinary ReaderAt/WriterAt
// contract by bouncing transfers through pooled page-aligned blocks:
//
//   - Aligned page I/O (the hash table's hot path — 4 KiB pages at 4 KiB
//     offsets) copies through one aligned block per page.
//   - Unaligned I/O (the 49-byte header slots at offsets 0 and 512) becomes
//     a read-modify-write of the containing aligned block. Concurrent RMW
//     of the same block must be serialized by the caller; hashdb already
//     does (header writes hold allocMu or run quiesced, and pages never
//     share a block).
//
// Not every filesystem supports O_DIRECT — tmpfs, some network and overlay
// mounts refuse it — so Open degrades gracefully: the file is opened
// buffered first (preserving O_EXCL creation semantics, which an O_DIRECT
// open can violate by creating the file and then failing), then O_DIRECT is
// enabled with fcntl(F_SETFL). If the filesystem refuses, or a later
// transfer fails with EINVAL, the file falls back to buffered I/O and
// stays there — correct everywhere, direct where possible, so the same
// binary runs on a raw SSD and in CI.
package directio

import (
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// BlockSize is the alignment unit for direct transfers: offsets, lengths,
// and buffer addresses are rounded to it. 4 KiB satisfies both 512e and
// 4Kn devices and equals the hash table's page size, so page I/O maps to
// exactly one aligned block.
const BlockSize = 4096

// queueDepth bounds concurrent direct transfers (a semaphore around the
// pread/pwrite) — deep enough to keep an NVMe queue busy, shallow enough not
// to starve the rest of the process of file descriptors' worth of inflight
// I/O. Buffered fallback I/O is not throttled: the page cache absorbs it.
const queueDepth = 32

// Options has nothing to configure. It stays, with Open's signature, only
// because the end-to-end benchmark (benchmark/report.go), which is frozen,
// passes an Options{} to Open.
type Options struct{}

// File is an os.File whose I/O goes through O_DIRECT when the filesystem
// supports it and plain buffered I/O when it does not. It satisfies
// hashdb.File.
type File struct {
	f      *os.File
	direct atomic.Bool
	sem    chan struct{}
}

// Open opens (or creates, per flag) path for direct I/O. The flag and perm
// arguments are os.OpenFile's. The returned file is always usable; Direct
// reports whether O_DIRECT actually engaged.
func Open(path string, flag int, perm os.FileMode, _ Options) (*File, error) {
	return open(path, flag, perm, queueDepth, true)
}

// open is Open at a queue depth of depth, trying O_DIRECT only if direct:
// this package's tests drive the semaphore shallower and the buffered path
// where O_DIRECT would work.
func open(path string, flag int, perm os.FileMode, depth int, direct bool) (*File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	d := &File{f: f, sem: make(chan struct{}, depth)}
	if direct && trySetDirect(f) {
		d.direct.Store(true)
	}
	return d, nil
}

// Direct reports whether transfers currently bypass the page cache. It can
// transition true→false (a filesystem that accepted F_SETFL but rejects
// the first transfer), never false→true.
func (d *File) Direct() bool { return d.direct.Load() }

// disableDirect drops to buffered I/O after the filesystem rejected a
// direct transfer with EINVAL.
func (d *File) disableDirect() {
	d.direct.Store(false)
	clearDirectFlag(d.f)
}

// blockPool recycles page-aligned bounce blocks. It holds *[]byte — a
// pointer fits the interface value without the slice-header boxing
// allocation a pool of bare slices pays on every Put.
var blockPool = sync.Pool{New: func() any { return newAlignedBlock() }}

// newAlignedBlock allocates a BlockSize buffer whose base address is
// BlockSize-aligned, as O_DIRECT requires of user memory. Go's GC does not
// move heap objects, so the alignment is stable for the buffer's lifetime.
func newAlignedBlock() *[]byte {
	raw := make([]byte, 2*BlockSize)
	pad := 0
	if r := int(uintptr(unsafe.Pointer(unsafe.SliceData(raw))) & (BlockSize - 1)); r != 0 {
		pad = BlockSize - r
	}
	b := raw[pad : pad+BlockSize : pad+BlockSize]
	return &b
}

// ReadAt implements io.ReaderAt. Like os.File it returns io.EOF with a
// short count when the file ends inside the requested range.
func (d *File) ReadAt(p []byte, off int64) (int, error) {
	if !d.direct.Load() {
		return d.f.ReadAt(p, off)
	}
	d.sem <- struct{}{}
	defer func() { <-d.sem }()
	bp := blockPool.Get().(*[]byte)
	defer blockPool.Put(bp)
	blk := *bp
	n := 0
	end := off + int64(len(p))
	for base := off &^ (BlockSize - 1); base < end; base += BlockSize {
		m, err := d.f.ReadAt(blk, base)
		if errors.Is(err, syscall.EINVAL) {
			// The filesystem took F_SETFL but refuses direct transfers
			// (some network and FUSE mounts). Fall back for good and
			// restart the whole read buffered.
			d.disableDirect()
			return d.f.ReadAt(p, off)
		}
		lo, hi := max(off, base), min(end, base+int64(m))
		if hi > lo {
			copy(p[lo-off:hi-off], blk[lo-base:hi-base])
			n = int(hi - off)
		}
		if err != nil {
			if errors.Is(err, io.EOF) && n == len(p) {
				// The range was satisfied; EOF was only in block padding.
				return n, nil
			}
			return n, err
		}
	}
	return n, nil
}

// WriteAt implements io.WriterAt. A write not aligned to BlockSize becomes
// a read-modify-write of the containing blocks; callers must serialize
// concurrent RMW of one block (aligned page writes never overlap).
func (d *File) WriteAt(p []byte, off int64) (int, error) {
	if !d.direct.Load() {
		return d.f.WriteAt(p, off)
	}
	d.sem <- struct{}{}
	defer func() { <-d.sem }()
	bp := blockPool.Get().(*[]byte)
	defer blockPool.Put(bp)
	blk := *bp
	n := 0
	end := off + int64(len(p))
	for base := off &^ (BlockSize - 1); base < end; base += BlockSize {
		lo, hi := max(off, base), min(end, base+BlockSize)
		if hi-lo < BlockSize {
			// Partial block: read what is there (EOF zero-fills) and merge.
			m, err := d.f.ReadAt(blk, base)
			if errors.Is(err, syscall.EINVAL) {
				d.disableDirect()
				return d.f.WriteAt(p, off)
			}
			if err != nil && !errors.Is(err, io.EOF) {
				return n, err
			}
			clear(blk[m:])
		}
		copy(blk[lo-base:hi-base], p[lo-off:hi-off])
		if _, err := d.f.WriteAt(blk, base); err != nil {
			if errors.Is(err, syscall.EINVAL) {
				d.disableDirect()
				return d.f.WriteAt(p, off)
			}
			return n, err
		}
		n = int(hi - off)
	}
	return n, nil
}

// Truncate resizes the file. Sizes need not be block-aligned, but direct
// reads of a final partial block then see a short read, as on os.File.
func (d *File) Truncate(size int64) error { return d.f.Truncate(size) }

// Stat delegates to the underlying file.
func (d *File) Stat() (os.FileInfo, error) { return d.f.Stat() }

// Sync flushes device caches. Under O_DIRECT data already bypassed the
// page cache, but fsync is still what flushes the drive's volatile write
// cache and the metadata (size) updates, so it is not a no-op.
func (d *File) Sync() error { return d.f.Sync() }

// Close closes the underlying file.
func (d *File) Close() error { return d.f.Close() }
