package hashdb_test

import (
	"path/filepath"
	"testing"

	"shhc/internal/hashdb"
	"shhc/internal/hashdb/storetest"
)

// stores is every Store this package implements; the conformance checks in
// storetest run over each.
var stores = []struct {
	name string
	open func(t *testing.T) hashdb.Store
}{
	// Three buckets: chains overflow, and a batch lands many keys per page.
	{"DB", func(t *testing.T) hashdb.Store {
		db, err := hashdb.Create(filepath.Join(t.TempDir(), "store.db"), hashdb.Options{Buckets: 3})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		return db
	}},
	{"MemStore", func(*testing.T) hashdb.Store { return hashdb.NewMemStore() }},
	// The kill point is out of reach: this is the forwarding that is checked.
	{"Failpoint(MemStore)", func(*testing.T) hashdb.Store {
		return hashdb.NewFailpoint(hashdb.NewMemStore(), 1<<40, nil)
	}},
}

func TestGetBatchMatchesGet(t *testing.T) {
	for _, s := range stores {
		t.Run(s.name, func(t *testing.T) { storetest.GetBatchMatchesGet(t, s.open) })
	}
}

func TestPutBatchMatchesPut(t *testing.T) {
	for _, s := range stores {
		t.Run(s.name, func(t *testing.T) { storetest.PutBatchMatchesPut(t, s.open) })
	}
}
