// Package baseline implements the comparison systems the paper positions
// SHHC against, so the benchmark harness can reproduce the "who wins"
// relationships in the evaluation:
//
//   - ChunkStash (Debnath et al., USENIX ATC'10): a centralized single-node
//     design keeping a compact cuckoo-hash index in RAM with full
//     <fingerprint, locator> records in an SSD log — one flash read per
//     positive lookup, RAM-only negatives. Implemented here as a
//     hashdb.Store so it can be benchmarked under the same node harness.
//   - A naive disk-index server (the hard-disk baseline ChunkStash reports
//     7x-60x wins over): the same page hash table as SHHC's SSD store but
//     charged with HDD seek latency and no RAM tiers in front.
//   - The centralized single-server deployment (SHHC with N=1), which is
//     the paper's own 1-node column in Figures 1 and 5.
package baseline

import (
	"context"
	"fmt"
	"sync"

	"shhc/internal/device"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

// chunkStash entry layout constants.
const (
	// stashAssoc is slots per cuckoo bucket (4-way set associative).
	stashAssoc = 4
	// stashMaxKicks bounds displacement chains before growing the table.
	stashMaxKicks = 64
	// logRecordSize is one <fingerprint, value> record in the SSD log.
	logRecordSize = fingerprint.Size + 8
)

type stashSlot struct {
	used bool
	sig  uint16
	ptr  uint32 // index into the log
}

type logRecord struct {
	fp  fingerprint.Fingerprint
	val hashdb.Value
	// dead tombstones a deleted record: the log is append-only, so the
	// record stays, and grow and Range skip it.
	dead bool
}

// ChunkStash is a compact-RAM-index + SSD-log fingerprint store.
// It implements hashdb.Store. Safe for concurrent use.
type ChunkStash struct {
	mu      sync.RWMutex
	dev     *device.Device
	buckets [][stashAssoc]stashSlot
	log     []logRecord
	n       int
	kicks   uint64 // total cuckoo displacements (diagnostics)
	closed  bool
}

var _ hashdb.Store = (*ChunkStash)(nil)

// NewChunkStash creates a store sized for expectedItems. dev charges the
// SSD log accesses; nil defaults to a non-sleeping SSD accountant.
func NewChunkStash(expectedItems int, dev *device.Device) *ChunkStash {
	if expectedItems <= 0 {
		expectedItems = 1 << 20
	}
	if dev == nil {
		dev = device.New(device.SSD, device.Account)
	}
	// Size for ~50% occupancy so cuckoo inserts rarely cascade.
	buckets := nextPow2((expectedItems*2)/stashAssoc + 1)
	return &ChunkStash{
		dev:     dev,
		buckets: make([][stashAssoc]stashSlot, buckets),
		log:     make([]logRecord, 0, expectedItems),
	}
}

func nextPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// hash positions and compact signature for a fingerprint. The signature
// comes from digest bytes not used for bucket addressing, as in the paper.
func (s *ChunkStash) positions(fp fingerprint.Fingerprint) (uint64, uint64, uint16) {
	mask := uint64(len(s.buckets) - 1)
	h1 := fp.Prefix64() & mask
	sig := uint16(fp.Tail32() >> 16) // digest bytes 16 and 17
	// Cuckoo's partial-key alternate: h2 = h1 XOR hash(sig), always
	// recomputable from the slot alone.
	h2 := (h1 ^ (uint64(sig)*0x5bd1e995 + 1)) & mask
	return h1, h2, sig
}

// find returns fp's cuckoo slot, or nil when fp is not stored: a RAM probe
// plus, per signature match, one SSD log read to confirm the full
// fingerprint (a signature collision keeps scanning). Caller holds mu.
func (s *ChunkStash) find(fp fingerprint.Fingerprint) *stashSlot {
	h1, h2, sig := s.positions(fp)
	for _, h := range [2]uint64{h1, h2} {
		for i := range s.buckets[h] {
			slot := &s.buckets[h][i]
			if !slot.used || slot.sig != sig {
				continue
			}
			s.dev.Read(logRecordSize)
			if s.log[slot.ptr].fp == fp {
				return slot
			}
		}
	}
	return nil
}

// Get returns the value stored for fp: RAM-only when no signature matches,
// one flash read per positive lookup.
func (s *ChunkStash) Get(fp fingerprint.Fingerprint) (hashdb.Value, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, false, hashdb.ErrClosed
	}
	if slot := s.find(fp); slot != nil {
		return s.log[slot.ptr].val, true, nil
	}
	return 0, false, nil
}

// Put appends the record to the SSD log and inserts its compact entry into
// the RAM cuckoo index, displacing entries as needed.
func (s *ChunkStash) Put(fp fingerprint.Fingerprint, v hashdb.Value) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, hashdb.ErrClosed
	}

	// Update in place if present (needs the same confirm read as Get).
	if slot := s.find(fp); slot != nil {
		s.dev.Write(logRecordSize)
		s.log[slot.ptr].val = v
		return false, nil
	}

	// Append to the SSD log.
	s.dev.Write(logRecordSize)
	ptr := uint32(len(s.log))
	s.log = append(s.log, logRecord{fp: fp, val: v})

	if h1, h2, sig := s.positions(fp); !s.insertSlot(h1, h2, sig, ptr, 0) {
		// Displacement chain too long: grow and rehash the RAM index (pure
		// RAM work; the log is untouched). The rehash indexes every log
		// record, the one just appended included — a second slot for it
		// would survive a later Delete.
		if err := s.grow(); err != nil {
			return false, err
		}
	}
	s.n++
	return true, nil
}

// insertSlot places (sig, ptr) in bucket h1 or h2, kicking residents if
// both are full, up to stashMaxKicks displacements.
func (s *ChunkStash) insertSlot(h1, h2 uint64, sig uint16, ptr uint32, depth int) bool {
	for _, h := range [2]uint64{h1, h2} {
		for i := 0; i < stashAssoc; i++ {
			if !s.buckets[h][i].used {
				s.buckets[h][i] = stashSlot{used: true, sig: sig, ptr: ptr}
				return true
			}
		}
	}
	if depth >= stashMaxKicks {
		return false
	}
	// Kick a resident of h1 to its alternate bucket.
	victim := s.buckets[h1][int(ptr)%stashAssoc]
	s.buckets[h1][int(ptr)%stashAssoc] = stashSlot{used: true, sig: sig, ptr: ptr}
	s.kicks++
	mask := uint64(len(s.buckets) - 1)
	alt := (h1 ^ (uint64(victim.sig)*0x5bd1e995 + 1)) & mask
	return s.insertSlot(alt, h1, victim.sig, victim.ptr, depth+1)
}

// grow doubles the RAM index and reinserts every log record's entry.
func (s *ChunkStash) grow() error {
	old := s.buckets
	for {
		s.buckets = make([][stashAssoc]stashSlot, len(s.buckets)*2)
		ok := true
		for ptr, rec := range s.log {
			if rec.dead {
				continue
			}
			h1, h2, sig := s.positions(rec.fp)
			if !s.insertSlot(h1, h2, sig, uint32(ptr), 0) {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if len(s.buckets) > 1<<28 {
			s.buckets = old
			return fmt.Errorf("baseline: chunkstash: cannot rehash %d entries", len(s.log))
		}
	}
}

// Delete clears fp's cuckoo slot and tombstones its log record, at the
// cost of the same confirm read as Get plus the tombstone write.
func (s *ChunkStash) Delete(fp fingerprint.Fingerprint) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, hashdb.ErrClosed
	}
	slot := s.find(fp)
	if slot == nil {
		return false, nil
	}
	s.dev.Write(logRecordSize)
	s.log[slot.ptr].dead = true
	*slot = stashSlot{}
	s.n--
	return true, nil
}

// GetBatch is a loop over Get: the log has no pages to coalesce, every
// positive lookup is its own flash read.
func (s *ChunkStash) GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]hashdb.Value, []bool, error) {
	vals, found := make([]hashdb.Value, len(fps)), make([]bool, len(fps))
	for i, fp := range fps {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		var err error
		if vals[i], found[i], err = s.Get(fp); err != nil {
			return nil, nil, err
		}
	}
	return vals, found, nil
}

// PutBatch is a loop over Put, in input order; pagesWritten counts entry
// writes, as for every store without pages.
func (s *ChunkStash) PutBatch(ctx context.Context, pairs []hashdb.Pair) ([]bool, int, error) {
	created := make([]bool, len(pairs))
	for i, p := range pairs {
		if err := ctx.Err(); err != nil {
			return nil, i, err
		}
		var err error
		if created[i], err = s.Put(p.FP, p.Val); err != nil {
			return nil, i, err
		}
	}
	return created, len(pairs), nil
}

// Range walks the log, one sequential read, calling fn for every live
// record until fn returns false.
func (s *ChunkStash) Range(fn func(fp fingerprint.Fingerprint, v hashdb.Value) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return hashdb.ErrClosed
	}
	s.dev.Read(len(s.log) * logRecordSize)
	for _, rec := range s.log {
		if !rec.dead && !fn(rec.fp, rec.val) {
			break
		}
	}
	return nil
}

// Len returns the number of stored entries.
func (s *ChunkStash) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// Sync is a no-op: the log is append-only and modeled as durable.
func (s *ChunkStash) Sync() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return hashdb.ErrClosed
	}
	return nil
}

// Close releases the store.
func (s *ChunkStash) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return hashdb.ErrClosed
	}
	s.closed = true
	s.buckets = nil
	s.log = nil
	return nil
}

// Stats describes the index shape.
type ChunkStashStats struct {
	Entries   int
	Buckets   int
	Kicks     uint64
	RAMBytes  int // compact index footprint
	LogBytes  int // SSD log footprint
	Occupancy float64
	Device    device.Stats
}

// Stats returns a snapshot of the index shape and device usage.
func (s *ChunkStash) Stats() ChunkStashStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slots := len(s.buckets) * stashAssoc
	occ := 0.0
	if slots > 0 {
		occ = float64(s.n) / float64(slots)
	}
	return ChunkStashStats{
		Entries:   s.n,
		Buckets:   len(s.buckets),
		Kicks:     s.kicks,
		RAMBytes:  slots * 8,
		LogBytes:  len(s.log) * logRecordSize,
		Occupancy: occ,
		Device:    s.dev.Stats(),
	}
}

// Device returns the device charged for SSD log I/O.
func (s *ChunkStash) Device() *device.Device { return s.dev }
