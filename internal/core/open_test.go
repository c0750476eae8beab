package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shhc/internal/hashdb"
)

// TestOpenNodeDiscardsHalfCreatedTable leaves what a kill inside a table's
// create leaves, before its header is fsynced: an empty file, or a
// zero-filled one with no header. Under the table's own name those bytes
// are refused by every open; under the temporary name OpenNode creates in,
// they are overwritten and the node comes up with an empty table.
func TestOpenNodeDiscardsHalfCreatedTable(t *testing.T) {
	for _, size := range []int64{0, 257 * hashdb.PageSize} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			dir := t.TempDir()
			torn := filepath.Join(dir, "torn.shdb")
			for _, p := range []string{torn, filepath.Join(dir, "n.shdb.tmp")} {
				if err := os.WriteFile(p, nil, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(p, size); err != nil {
					t.Fatal(err)
				}
			}
			if db, err := hashdb.Open(torn); err == nil {
				db.Close()
				t.Fatal("hashdb.Open took a table with no header")
			}
			for round := 0; round < 2; round++ {
				n, db, err := OpenNode(dir, NodeConfig{ID: "n", CacheSize: 64, WriteBack: true}, false)
				if err != nil {
					t.Fatalf("round %d: OpenNode: %v", round, err)
				}
				if db.Len() != round {
					t.Fatalf("round %d: the table holds %d entries", round, db.Len())
				}
				if _, err := n.LookupOrInsert(context.Background(), fp(uint64(round)), 1); err != nil {
					t.Fatal(err)
				}
				if err := n.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "n.shdb.tmp")); !os.IsNotExist(err) {
				t.Fatalf("the temporary table is still there: %v", err)
			}
		})
	}
}

// createTable makes a table file at path, which must not exist.
func createTable(path string, opts hashdb.Options) (*hashdb.DB, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return hashdb.CreateFile(f, path, opts)
}

// wantJournalEmpty fails the test unless the journal at path is its header
// alone.
func wantJournalEmpty(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != journalHdrSize {
		t.Fatalf("the journal holds %d bytes after Close, want its %d-byte header", fi.Size(), journalHdrSize)
	}
}

// syncLogFile logs each fsync of the table file OpenNode creates.
type syncLogFile struct {
	hashdb.File
	steps *[]string
}

func (f syncLogFile) Sync() error {
	*f.steps = append(*f.steps, "header sync")
	return f.File.Sync()
}

// TestOpenNodeCreateSyncOrder holds OpenNode to its create order: the
// table's header is fsynced before the table takes its name, the journal
// exists before the directory is fsynced, and the directory's parent is
// fsynced when OpenNode made the directory. A reopen creates nothing and
// syncs the directory again.
func TestOpenNodeCreateSyncOrder(t *testing.T) {
	var steps []string
	defer func(wrap func(hashdb.File) hashdb.File, run func(string, func() error) error) {
		tableFile, openStep = wrap, run
	}(tableFile, openStep)
	tableFile = func(f hashdb.File) hashdb.File { return syncLogFile{f, &steps} }
	openStep = func(name string, do func() error) error {
		steps = append(steps, name)
		return do()
	}
	dir := filepath.Join(t.TempDir(), "node")
	for _, want := range []string{
		"[header sync rename journal sync dir sync parent]",
		"[journal sync dir]",
	} {
		steps = nil
		n, _, err := OpenNode(dir, NodeConfig{ID: "n", CacheSize: 64, WriteBack: true}, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(steps); got != want {
			t.Fatalf("OpenNode took the steps %s, want %s", got, want)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
