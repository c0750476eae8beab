package hashdb

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"shhc/internal/fingerprint"
)

// sealCRCs recomputes the checksum of both header slots and of every page
// past the header, so whatever file holds passes them and what Open makes
// of it is decided by its structure.
func sealCRCs(file []byte) {
	for _, off := range []int{0, headerSlotStride} {
		if off+fileHdrSize <= len(file) {
			slot := file[off : off+fileHdrSize]
			binary.BigEndian.PutUint32(slot, crc32.ChecksumIEEE(slot[4:]))
		}
	}
	for off := PageSize; off+PageSize <= len(file); off += PageSize {
		page := file[off : off+PageSize]
		binary.BigEndian.PutUint32(page, pageSum(page))
	}
}

// tableBytes returns the file a table of buckets starting buckets is after
// fill has run on it and it closed cleanly.
func tableBytes(t testing.TB, buckets uint64, fill func(db *DB) error) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.shdb")
	db, err := create(path, Options{Buckets: buckets})
	if err != nil {
		t.Fatal(err)
	}
	if err := fill(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return file
}

func putKeys(db *DB, from, n uint64) error {
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(from + uint64(i)), Val: Value(from + uint64(i))}
	}
	_, _, err := db.PutBatch(context.Background(), pairs)
	return err
}

// TestCraftedHeadersRejectedOrRecovered: a header with a valid checksum and
// a growth state no table of its base can be in. Clean, Open refuses it as
// corrupt before it sizes anything from it; the bucket directory such a
// header asked for once took an 8 TiB allocation (level 40) or a make that
// panicked (level 63, split 2^50). Dirty, the state only bounds what
// recovery re-derives from the file, and the table opens.
func TestCraftedHeadersRejectedOrRecovered(t *testing.T) {
	// One bucket page with ten entries and a spare page: base 1, 3 pages.
	seed := tableBytes(t, 1, func(db *DB) error { return putKeys(db, 0, 10) })
	seed = append(seed, make([]byte, PageSize)...)
	for _, off := range []int{0, headerSlotStride} {
		binary.BigEndian.PutUint64(seed[off+32:], 3)
	}
	for _, tc := range []struct {
		name  string
		level uint32
		split uint64
	}{{"level-40", 40, 0}, {"level-63", 63, 0}, {"split-2^50", 0, 1 << 50}} {
		for _, clean := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/clean=%v", tc.name, clean), func(t *testing.T) {
				file := slices.Clone(seed)
				for _, off := range []int{0, headerSlotStride} {
					binary.BigEndian.PutUint32(file[off+49:], tc.level)
					binary.BigEndian.PutUint64(file[off+53:], tc.split)
					file[off+40] = 0
					if clean {
						file[off+40] = 1
					}
				}
				sealCRCs(file)
				path := filepath.Join(t.TempDir(), "crafted.shdb")
				if err := os.WriteFile(path, file, 0o644); err != nil {
					t.Fatal(err)
				}
				db, err := Open(path)
				if clean {
					var ce *CorruptionError
					if !errors.As(err, &ce) {
						t.Fatalf("Open = %v, want a CorruptionError", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("Open of the dirty header = %v, want recovery", err)
				}
				defer db.Close()
				if st := db.Stats(); db.Recovery().Runs != 1 || st.Entries != 10 || st.Buckets != 1 {
					t.Fatalf("recovered %+v to %d entries in %d buckets, want 10 in 1", db.Recovery(), st.Entries, st.Buckets)
				}
				if err := db.Check(); err != nil {
					t.Fatalf("Check: %v", err)
				}
			})
		}
	}
}

// fuzzWindow is how much of each page a FuzzOpen input writes: both header
// slots of page 0, and of every other page its header and first entries or
// directory slots. The rest of each page is the grown seed table's.
const fuzzWindow = headerSlotStride + fileHdrSize

// fuzzOpenPages bounds the files FuzzOpen tries: its seed tables are ten.
const fuzzOpenPages = 32

// layOver lays input over base a window a page: page p of the file starts
// with input[p*fuzzWindow:][:fuzzWindow] and ends as base's page p does (or
// zeros past base's end). An input that ends mid-window ends the file there.
func layOver(base, input []byte) []byte {
	pages := (len(input) + fuzzWindow - 1) / fuzzWindow
	file := make([]byte, pages*PageSize)
	copy(file, base)
	for p := 0; p < pages; p++ {
		copy(file[p*PageSize:], input[p*fuzzWindow:min(len(input), (p+1)*fuzzWindow)])
	}
	if rest := len(input) % fuzzWindow; rest != 0 {
		file = file[:(pages-1)*PageSize+rest]
	}
	return file
}

// windows is the input layOver turns back into file.
func windows(file []byte) []byte {
	var input []byte
	for off := 0; off < len(file); off += PageSize {
		input = append(input, file[off:min(len(file), off+fuzzWindow)]...)
	}
	return input
}

// FuzzOpen opens the file its input lays over a small grown table, the
// checksums sealed. Open must not panic or hang; a table it opens must pass
// Check, enumerate to its Len, and take a batch that a Sync and a reopen
// keep. The seed tables are built with single-key writes: a batch's chains
// race for overflow pages, and an input must mean the same file every run.
func FuzzOpen(f *testing.F) {
	put := func(db *DB, from, n uint64) error {
		for k := from; k < from+n; k++ {
			if _, err := db.Put(fp(k), Value(k)); err != nil {
				return err
			}
		}
		return nil
	}
	fresh := tableBytes(f, 2, func(*DB) error { return nil })
	grown := tableBytes(f, 2, func(db *DB) error {
		if err := put(db, 0, 600); err != nil {
			return err
		}
		for k := uint64(0); k < 600; k += 3 {
			if _, err := db.Delete(fp(k)); err != nil {
				return err
			}
		}
		if _, err := db.Compact(); err != nil {
			return err
		}
		return db.Sync()
	})
	v3 := windows(grown)
	for _, off := range []int{0, headerSlotStride} {
		binary.BigEndian.PutUint32(v3[off+8:], 3)
	}
	f.Add(windows(fresh))
	f.Add(windows(grown))
	f.Add(v3)
	f.Add(windows(grown)[:len(windows(grown))-fuzzWindow-fuzzWindow/2])

	path := filepath.Join(f.TempDir(), "fuzz.shdb")
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > fuzzOpenPages*fuzzWindow {
			return
		}
		file := layOver(grown, input)
		sealCRCs(file)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(path)
		if err != nil {
			return // a refusal is an answer
		}
		if err := db.Check(); err != nil {
			db.Close()
			t.Fatalf("Open returned a table that fails Check: %v", err)
		}
		n := 0
		if err := db.Range(func(fingerprint.Fingerprint, Value) bool { n++; return true }); err != nil || n != db.Len() {
			db.Close()
			t.Fatalf("Range = %v after %d entries, Len %d", err, n, db.Len())
		}
		if err := putKeys(db, 1<<40, 64); err != nil {
			db.Close()
			t.Fatalf("PutBatch: %v", err)
		}
		if err := db.Sync(); err != nil {
			db.Close()
			t.Fatalf("Sync: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		db, err = Open(path)
		if err != nil {
			t.Fatalf("reopen after Sync: %v", err)
		}
		defer db.Close()
		if rs := db.Recovery(); rs.Runs != 0 {
			t.Fatalf("reopen after Sync ran recovery: %+v", rs)
		}
		for k := uint64(1 << 40); k < 1<<40+64; k++ {
			if v, ok, err := db.Get(fp(k)); err != nil || !ok || v != Value(k) {
				t.Fatalf("Get(%d) after reopen = %d, %v, %v", k, v, ok, err)
			}
		}
		if err := db.Check(); err != nil {
			t.Fatalf("Check after reopen: %v", err)
		}
	})
}
