package hashdb

import (
	"context"

	"shhc/internal/fingerprint"
)

// Store is the persistent-index contract the hybrid hash node builds on:
// one interface, with the batch calls as the primitive. The node's SSD
// phase, its destage waves and its journal replay all hand the store a
// whole batch, because that is what lets a paged store pay one file call
// per run of bucket pages instead of one per fingerprint and overlap pages
// up to the device's queue depth; Get and Put serve the node's single-key
// operations. *DB implements it, over a file or a MemFile; the rest are
// decorators of a *DB (device.Slow, tests' gates and fault hooks).
// Implementations must be safe for concurrent use: the striped hybrid node
// issues overlapping probes from every stripe.
// The //shhc:io markers declare every probe and mutation to be I/O for
// the lockio analyzer: call sites dispatch through this interface, so the
// SSD-backed implementation is not statically visible there, and a decorator
// may make any implementation slow (device.Slow). Len is a counter read.
type Store interface {
	// Get returns the value stored for fp.
	Get(fp fingerprint.Fingerprint) (Value, bool, error) //shhc:io
	// Put stores fp -> v, reporting whether a new entry was created.
	Put(fp fingerprint.Fingerprint, v Value) (bool, error) //shhc:io
	// Delete removes fp, reporting whether it was present. Not marked
	// //shhc:io: ctxfirst would then demand a context of core.Node.Remove,
	// whose signature core.Migrator and the frozen benchmark pin.
	Delete(fp fingerprint.Fingerprint) (bool, error)
	// GetBatch looks up every fingerprint, returning values and found
	// flags in input order. A lookup error fails the whole batch. A
	// cancelled ctx stops the batch from issuing further reads (reads
	// already issued complete) and fails it with ctx.Err(). fps
	// belongs to the caller again when GetBatch returns: an implementation
	// must not keep it.
	GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]Value, []bool, error) //shhc:io
	// PutBatch stores every pair, overwriting existing values. created
	// reports, in input order, whether each pair created a new entry
	// (a fingerprint appearing twice in one batch resolves in input
	// order, so the second occurrence is an update). pagesWritten is the
	// number of page writes the batch cost, the denominator of the
	// write-coalescing ratio. A store error fails the whole batch. A cancelled ctx stops
	// the batch from issuing I/O for further bucket chains and
	// fails it with ctx.Err(); a chain whose in-memory mutation has
	// finished always writes out completely, so cancellation can strand
	// at most already-allocated (unreferenced) overflow pages, never a
	// torn chain. pairs belongs to the caller again when PutBatch returns:
	// an implementation must not keep it.
	PutBatch(ctx context.Context, pairs []Pair) (created []bool, pagesWritten int, err error) //shhc:io
	// Range calls fn for every entry until fn returns false.
	Range(fn func(fp fingerprint.Fingerprint, v Value) bool) error //shhc:io
	// Len returns the number of stored entries.
	Len() int
	// Sync makes all previous writes durable.
	Sync() error //shhc:io
	// Close releases resources; the store is unusable afterwards.
	Close() error //shhc:io
}

var _ Store = (*DB)(nil)
