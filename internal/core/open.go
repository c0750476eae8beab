package core

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"

	"shhc/internal/directio"
	"shhc/internal/hashdb"
)

// This package's tests replace these to log the order of OpenNode's durable
// steps: tableFile wraps the file a table is created in, and openStep runs each
// later one ("rename", "journal", "sync dir", "sync parent").
var (
	tableFile = func(f hashdb.File) hashdb.File { return f }
	openStep  = func(name string, do func() error) error { return do() }
)

// OpenNode opens the node cfg.ID keeps in dir, creating dir and its files on
// the first start, and returns it with its hash table, <dir>/<id>.shdb
// (O_DIRECT when direct, buffered where the filesystem refuses it). A
// write-back node journals to <dir>/<id>.wal, which NewNode replays. With an
// empty dir the table is in memory and unjournaled. OpenNode sets cfg.Store
// and cfg.JournalPath.
//
// A new table is created as <id>.shdb.tmp, its header fsynced, and renamed
// into place: a kill mid-create leaves only the temporary file, which the
// next start overwrites. Once the table and journal exist, dir is fsynced,
// and its parent too if OpenNode made dir.
func OpenNode(dir string, cfg NodeConfig, direct bool) (n *Node, db *hashdb.DB, err error) {
	defer func() {
		if err != nil && db != nil {
			db.Close()
			n, db = nil, nil
		}
	}()
	cfg.JournalPath = ""
	if dir == "" {
		db = hashdb.CreateMem(nil, hashdb.Options{})
	} else {
		dir = filepath.Clean(dir)
		_, statErr := os.Stat(dir)
		if err = os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		path := filepath.Join(dir, string(cfg.ID)+".shdb")
		if db, err = openTable(path, direct); err != nil {
			return nil, nil, err
		}
		if cfg.WriteBack {
			cfg.JournalPath = filepath.Join(dir, string(cfg.ID)+".wal")
			if err = openStep("journal", func() error {
				f, err := os.OpenFile(cfg.JournalPath, os.O_RDWR|os.O_CREATE, 0o644)
				if err == nil {
					f.Close()
				}
				return err
			}); err != nil {
				return
			}
		}
		// hashdb.SyncDir(p) syncs the directory holding p.
		if err = openStep("sync dir", func() error { return hashdb.SyncDir(path) }); err != nil {
			return
		}
		if errors.Is(statErr, fs.ErrNotExist) {
			if err = openStep("sync parent", func() error { return hashdb.SyncDir(dir) }); err != nil {
				return
			}
		}
	}
	cfg.Store = db
	n, err = NewNode(cfg)
	return n, db, err
}

// openTable opens the table at path, or creates it through path+".tmp".
func openTable(path string, direct bool) (*hashdb.DB, error) {
	open := func(name string, flag int) (hashdb.File, error) {
		if direct {
			return directio.Open(name, flag, 0o644, directio.Options{})
		}
		return os.OpenFile(name, flag, 0o644)
	}
	f, err := open(path, os.O_RDWR)
	if err == nil {
		return hashdb.OpenFile(f, path)
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	tmp := path + ".tmp"
	if f, err = open(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC); err != nil {
		return nil, err
	}
	// CreateFile fsyncs the header; its messages name the table by the
	// name it is renamed to.
	db, err := hashdb.CreateFile(tableFile(f), path, hashdb.Options{})
	if err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := openStep("rename", func() error { return os.Rename(tmp, path) }); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}
