package shhc

import "shhc/internal/hashdb"

// newMemStoreForTest exposes an in-memory store to facade tests without
// making hashdb part of the public API surface.
func newMemStoreForTest() hashdb.Store { return hashdb.NewMemStore() }
