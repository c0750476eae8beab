//go:build ignore

// mkgoldenfiles writes golden.shdb and golden.wal, the crash image that
// TestGoldenCrashImageOpenAndReplay opens: a hash table in hashdb format 5,
// left marked dirty, and the destage journal of the write-back node that
// was using it. Run from the repository root:
//
//	go run internal/core/testdata/mkgoldenfiles.go internal/core/testdata
//
// It prints what the writing code makes of the image, which is what the
// test pins. Regenerate the files only with a change to the on-disk formats:
// that an image written once still opens is the point.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

const (
	stored    = 600 // fingerprints 0..599 reach the table through Flush
	journaled = 32  // 600..631 are evicted into a destager that never runs
	cacheSize = 8   // 632..639 stay dirty in the cache and die with the process
)

func open(dir string) (*hashdb.DB, *core.Node) {
	path := filepath.Join(dir, "golden.shdb")
	db, err := hashdb.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		// Three buckets for 640 entries: the table splits, so the image
		// holds a directory page.
		db, err = hashdb.Create(path, hashdb.Options{Buckets: 3})
	}
	if err != nil {
		log.Fatal(err)
	}
	n, err := core.NewNode(core.NodeConfig{
		ID: "golden", Store: db, CacheSize: cacheSize, BloomExpected: 1 << 12,
		WriteBack: true, JournalPath: filepath.Join(dir, "golden.wal"),
		DestageBatch: 1 << 20, DestageInterval: time.Hour, DestageQueue: 1 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	return db, n
}

func main() {
	// Exactly one argument, an existing directory; anything else, -h
	// included, prints the usage and writes nothing.
	fs := flag.NewFlagSet("mkgoldenfiles", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: go run internal/core/testdata/mkgoldenfiles.go <existing directory>")
	}
	err := fs.Parse(os.Args[1:])
	if err == nil && fs.NArg() != 1 {
		fs.Usage()
		err = flag.ErrHelp
	}
	if err != nil {
		os.Exit(2)
	}
	dir := fs.Arg(0)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		fmt.Fprintf(fs.Output(), "mkgoldenfiles: %s is not an existing directory\n", dir)
		fs.Usage()
		os.Exit(2)
	}
	ctx := context.Background()
	live := filepath.Join(dir, "live")
	if err := os.MkdirAll(live, 0o755); err != nil {
		log.Fatal(err)
	}
	_, n := open(live)
	insert := func(from, to uint64) {
		for i := from; i < to; i++ {
			if _, err := n.LookupOrInsert(ctx, fingerprint.FromUint64(i), core.Value(i+7)); err != nil {
				log.Fatal(err)
			}
		}
	}
	insert(0, stored)
	if err := n.Flush(); err != nil {
		log.Fatal(err)
	}
	insert(stored, stored+journaled+cacheSize)
	// Two tombstones: 3 is deleted from the table (which leaves the file
	// marked dirty, so the next open runs hashdb's recovery pass), 605 only
	// from the journal's own earlier record.
	for _, i := range []uint64{3, 605} {
		if _, err := n.Remove(fingerprint.FromUint64(i)); err != nil {
			log.Fatal(err)
		}
	}
	// The crash: copy both files as they stand, with the node still open.
	for _, name := range []string{"golden.shdb", "golden.wal"} {
		b, err := os.ReadFile(filepath.Join(live, name))
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	n.Close()
	os.RemoveAll(live)

	// What this commit's own code makes of the image, from a second copy:
	// the numbers the test pins.
	check := filepath.Join(dir, "check")
	os.MkdirAll(check, 0o755)
	for _, name := range []string{"golden.shdb", "golden.wal"} {
		b, _ := os.ReadFile(filepath.Join(dir, name))
		os.WriteFile(filepath.Join(check, name), b, 0o644)
	}
	db, n2 := open(check)
	st, _ := n2.Stats(ctx)
	fmt.Printf("recovery: %+v\nstore entries: %d\n", st.Recovery, db.Len())
	for i := uint64(0); i < stored+journaled; i++ {
		r, err := n2.Lookup(ctx, fingerprint.FromUint64(i))
		if err != nil || r.Exists != (i != 3 && i != 605) || (r.Exists && r.Value != core.Value(i+7)) {
			log.Fatalf("fingerprint %d: %+v, %v", i, r, err)
		}
	}
	n2.Close()
	os.RemoveAll(check)
}
