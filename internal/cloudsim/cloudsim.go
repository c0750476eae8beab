// Package cloudsim simulates the cloud storage backend (the paper's
// "Cloud Storage, a back-end cloud-based storage service (e.g. Amazon S3)").
//
// SHHC treats the backend as an opaque PUT/GET object store reached over a
// WAN; only its existence and its transfer cost matter to the dedup path.
// The simulator stores chunks in memory keyed by fingerprint and charges
// WAN latency/bandwidth to a device model, so end-to-end examples can show
// how much traffic deduplication removes — the paper's stated motivation
// ("the cost of bandwidth ... must be considered").
package cloudsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"shhc/internal/device"
	"shhc/internal/fingerprint"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("cloudsim: store is closed")

// WAN is the default network model between the data center and the cloud
// store: 20 ms RTT, ~100 MB/s sustained.
var WAN = device.Model{Name: "wan", ReadBase: 20 * time.Millisecond, WriteBase: 20 * time.Millisecond, PerByte: 10 * time.Nanosecond}

// Config configures the simulated store. It has no fields: every store
// charges its transfers to a non-sleeping WAN accountant (Stats.Network).
type Config struct{}

// Store is a content-addressed object store: chunks are keyed by their
// fingerprint, so storing is idempotent. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	objects map[fingerprint.Fingerprint][]byte
	bytes   int64
	closed  bool

	puts          int64
	redundantPuts int64
	gets          int64
	net           *device.Device
}

// New creates an empty simulated cloud store.
func New(Config) *Store {
	return &Store{objects: make(map[fingerprint.Fingerprint][]byte), net: device.New(WAN, device.Account)}
}

// Put stores a chunk under its fingerprint. It reports whether the object
// was new; re-putting an existing fingerprint is counted as a redundant
// upload (wasted WAN traffic the dedup layer should have prevented).
// A cancelled ctx stops the transfer before it is charged.
func (s *Store) Put(ctx context.Context, fp fingerprint.Fingerprint, data []byte) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	s.net.Write(len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	s.puts++
	if _, exists := s.objects[fp]; exists {
		s.redundantPuts++
		return false, nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.objects[fp] = cp
	s.bytes += int64(len(data))
	return true, nil
}

// Get fetches a chunk by fingerprint. A cancelled ctx stops the transfer
// before it is charged.
func (s *Store) Get(ctx context.Context, fp fingerprint.Fingerprint) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	s.mu.RLock()
	data, ok := s.objects[fp]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, false, ErrClosed
	}
	s.net.Read(len(data))
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, true, nil
}

// Has reports whether a chunk is stored, without transfer cost.
func (s *Store) Has(fp fingerprint.Fingerprint) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false, ErrClosed
	}
	_, ok := s.objects[fp]
	return ok, nil
}

// Stats describes stored state and traffic counters.
type Stats struct {
	Objects       int
	Bytes         int64
	Puts          int64
	RedundantPuts int64
	Gets          int64
	Network       device.Stats
}

func (st Stats) String() string {
	return fmt.Sprintf("objects=%d bytes=%d puts=%d redundant=%d gets=%d",
		st.Objects, st.Bytes, st.Puts, st.RedundantPuts, st.Gets)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Objects:       len(s.objects),
		Bytes:         s.bytes,
		Puts:          s.puts,
		RedundantPuts: s.redundantPuts,
		Gets:          s.gets,
		Network:       s.net.Stats(),
	}
}

// Close releases the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	s.objects = nil
	return nil
}
