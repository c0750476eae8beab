package directio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T, depth int, direct bool) *File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blob")
	f, err := open(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644, depth, direct)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestDirectIORoundTrip writes and reads across the aligned fast path and
// both unaligned RMW shapes (head fragment, tail fragment, sub-block span).
func TestDirectIORoundTrip(t *testing.T) {
	for _, disable := range []bool{false, true} {
		f := openTemp(t, queueDepth, !disable)
		if disable && f.Direct() {
			t.Fatal("a buffered open engaged O_DIRECT")
		}
		t.Logf("disable=%v direct=%v", disable, f.Direct())

		if err := f.Truncate(4 * BlockSize); err != nil {
			t.Fatal(err)
		}
		// Aligned whole blocks.
		page := bytes.Repeat([]byte{0xAB}, BlockSize)
		if n, err := f.WriteAt(page, BlockSize); err != nil || n != BlockSize {
			t.Fatalf("aligned WriteAt = %d, %v", n, err)
		}
		// Unaligned small writes inside one block (the header-slot shape).
		hdr := bytes.Repeat([]byte{0x11}, 49)
		if n, err := f.WriteAt(hdr, 0); err != nil || n != len(hdr) {
			t.Fatalf("header WriteAt = %d, %v", n, err)
		}
		hdr2 := bytes.Repeat([]byte{0x22}, 49)
		if n, err := f.WriteAt(hdr2, 512); err != nil || n != len(hdr2) {
			t.Fatalf("header slot 2 WriteAt = %d, %v", n, err)
		}
		// A write spanning a block boundary.
		span := bytes.Repeat([]byte{0x33}, BlockSize)
		if n, err := f.WriteAt(span, 2*BlockSize+100); err != nil || n != len(span) {
			t.Fatalf("spanning WriteAt = %d, %v", n, err)
		}

		check := func(off int64, want []byte) {
			t.Helper()
			got := make([]byte, len(want))
			if n, err := f.ReadAt(got, off); err != nil || n != len(want) {
				t.Fatalf("ReadAt(%d) = %d, %v", off, n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("ReadAt(%d) content mismatch", off)
			}
		}
		check(BlockSize, page)
		check(0, hdr)
		check(512, hdr2)
		check(2*BlockSize+100, span)
		// The first header write must not have clobbered the second slot's
		// block-mates, and vice versa.
		zeros := make([]byte, 512-49)
		check(49, zeros)

		if err := f.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
}

// TestDirectIOReadAtEOF pins os.File-compatible short-read semantics: a
// read crossing EOF returns the available bytes with io.EOF, a read fully
// past EOF returns 0, io.EOF.
func TestDirectIOReadAtEOF(t *testing.T) {
	f := openTemp(t, queueDepth, true)
	if err := f.Truncate(BlockSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*BlockSize)
	n, err := f.ReadAt(buf, 0)
	if n != BlockSize || !errors.Is(err, io.EOF) {
		t.Fatalf("crossing read = %d, %v; want %d, EOF", n, err, BlockSize)
	}
	n, err = f.ReadAt(buf[:10], 3*BlockSize)
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("past-EOF read = %d, %v; want 0, EOF", n, err)
	}
	// A read exactly filling the file must NOT report EOF (padding-only EOF
	// is swallowed).
	n, err = f.ReadAt(buf[:BlockSize], 0)
	if n != BlockSize || err != nil {
		t.Fatalf("exact read = %d, %v; want %d, nil", n, err, BlockSize)
	}
}

// TestDirectIOFallbackTmpfs proves the graceful-degradation contract on a
// filesystem that rejects O_DIRECT: /dev/shm (tmpfs on Linux). Wherever it
// runs, Open must succeed and serve correct I/O; tmpfs typically forces
// Direct() == false, but the test holds either way — that is the point of
// the fallback.
func TestDirectIOFallbackTmpfs(t *testing.T) {
	base := "/dev/shm"
	if fi, err := os.Stat(base); err != nil || !fi.IsDir() {
		t.Skip("/dev/shm not available")
	}
	dir, err := os.MkdirTemp(base, "directio-test-*")
	if err != nil {
		t.Skipf("cannot write %s: %v", base, err)
	}
	defer os.RemoveAll(dir)
	f, err := Open(filepath.Join(dir, "blob"), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644, Options{})
	if err != nil {
		t.Fatalf("Open on tmpfs: %v", err)
	}
	defer f.Close()
	t.Logf("tmpfs direct=%v", f.Direct())
	want := bytes.Repeat([]byte{0x5A}, BlockSize+77)
	if _, err := f.WriteAt(want, 33); err != nil {
		t.Fatalf("WriteAt on tmpfs: %v", err)
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 33); err != nil {
		t.Fatalf("ReadAt on tmpfs: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("tmpfs round-trip mismatch")
	}
}

// TestDirectIOConcurrent hammers disjoint aligned pages from many
// goroutines through a small queue depth, exercising the semaphore and the
// bounce-block pool.
func TestDirectIOConcurrent(t *testing.T) {
	f := openTemp(t, 4, true)
	const pages = 64
	if err := f.Truncate(pages * BlockSize); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, pages)
	for i := 0; i < pages; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			page := bytes.Repeat([]byte{byte(i)}, BlockSize)
			if _, err := f.WriteAt(page, int64(i)*BlockSize); err != nil {
				errs <- err
				return
			}
			got := make([]byte, BlockSize)
			if _, err := f.ReadAt(got, int64(i)*BlockSize); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, page) {
				errs <- errors.New("page content mismatch")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
