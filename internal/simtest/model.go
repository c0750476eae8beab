// Package simtest states the index's safety contract once, as a model that
// every fault test checks its answers against, and holds the kill-point
// sweep and the op schedules those tests share. It imports only the standard
// library and internal/fingerprint, so the internal tests of hashdb and core
// can both use it.
//
// The contract (docs/ARCHITECTURE.md, "Safety contract"):
//
//	R1  a value that is found was written for that key by some operation;
//	R2  an acked put survives with its value, unless the call site names an
//	    Excuse: a torn page recovery reported, or the write-back window;
//	R3  an acked delete never comes back;
//	R4  a key nobody wrote is never reported as a duplicate;
//	R5  an acked key is never answered "new" by the cluster.
//
// A violation is returned as an error whose text starts with the rule's name.
package simtest

import (
	"fmt"
	"sort"
	"sync"

	"shhc/internal/fingerprint"
)

// Excuse names the losses a call site accepts as inside the contract.
type Excuse struct {
	// Torn excuses a lost acked put (R2) when recovery reported a torn page:
	// a torn in-place overwrite may take the page's older entries with it.
	Torn bool
	// Window excuses a lost acked put (R2) among the Window keys acked last
	// before Crash: a write-back node acks from RAM, and what its cache still
	// held dirty at the kill is gone.
	Window int
}

type keyState struct {
	written map[uint64]bool // every value some operation tried to write
	clean   bool            // the key's last operation was acked
	deleted bool            // the last acked operation was a delete
	val     uint64          // the last acked put's value
	seq     int             // when the last acked put was acked (0: never)
}

// Model is the contract's reference: per key, every value any operation
// tried to write and the state the last acknowledged operation left. It is
// safe for concurrent use.
type Model struct {
	mu      sync.Mutex
	keys    map[fingerprint.Fingerprint]*keyState
	seq     int
	crashed bool
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{keys: make(map[fingerprint.Fingerprint]*keyState)}
}

// Clone returns an independent copy: a template's settled state, reused by
// every run of a sweep.
func (m *Model) Clone() *Model {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &Model{keys: make(map[fingerprint.Fingerprint]*keyState, len(m.keys)), seq: m.seq, crashed: m.crashed}
	for k, s := range m.keys {
		cs := *s
		cs.written = make(map[uint64]bool, len(s.written))
		for v := range s.written {
			cs.written[v] = true
		}
		c.keys[k] = &cs
	}
	return c
}

func (m *Model) key(k fingerprint.Fingerprint) *keyState {
	s := m.keys[k]
	if s == nil {
		s = &keyState{written: make(map[uint64]bool), clean: true, deleted: true}
		m.keys[k] = s
	}
	return s
}

// Put records an attempt to write v for k: from here until AckPut, either
// outcome of the write is legal.
func (m *Model) Put(k fingerprint.Fingerprint, v uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.key(k)
	s.written[v] = true
	s.clean = false
}

// AckPut records that the put of k was acknowledged and k now holds v. After
// Crash an ack settles nothing: the process that gave it is dead.
func (m *Model) AckPut(k fingerprint.Fingerprint, v uint64) {
	m.AckBatch([]fingerprint.Fingerprint{k}, []uint64{v})
}

// AckBatch records one acknowledgement of a batch of puts: ks[i] now holds
// vals[i]. The keys share one place in the write-back window, because a
// node orders a batch's cache inserts its own way, not the batch's.
func (m *Model) AckBatch(ks []fingerprint.Fingerprint, vals []uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return
	}
	m.seq++
	for i, k := range ks {
		s := m.key(k)
		s.written[vals[i]] = true
		s.clean, s.deleted, s.val, s.seq = true, false, vals[i], m.seq
	}
}

// Delete records an attempt to delete k.
func (m *Model) Delete(k fingerprint.Fingerprint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.key(k).clean = false
}

// AckDelete records that the delete of k was acknowledged.
func (m *Model) AckDelete(k fingerprint.Fingerprint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return
	}
	s := m.key(k)
	s.clean, s.deleted = true, true
}

// Crash marks the instant the process died: later acks settle nothing, and
// Excuse.Window counts back from here.
func (m *Model) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = true
}

// Check holds what survived a crash to R1–R3: get reads one key from the
// recovered store. It returns the first violation.
func (m *Model) Check(get func(fingerprint.Fingerprint) (uint64, bool, error), ex Excuse) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	window := m.windowStart(ex.Window)
	for k, s := range m.keys {
		v, ok, err := get(k)
		if err != nil {
			return fmt.Errorf("get %s after recovery: %w", k.Short(), err)
		}
		if ok && !s.written[v] {
			return fmt.Errorf("R1: %s = %d, a value no operation wrote for it", k.Short(), v)
		}
		switch {
		case !s.clean:
			// The key's last operation was cut short: either outcome is legal.
		case s.deleted && ok:
			return fmt.Errorf("R3: %s came back as %d after its acked delete", k.Short(), v)
		case s.deleted:
		case ok && v != s.val:
			return fmt.Errorf("R2: acked %s = %d, want %d", k.Short(), v, s.val)
		case !ok && !ex.Torn && s.seq < window:
			return fmt.Errorf("R2: acked put of %s (value %d) lost", k.Short(), s.val)
		}
	}
	return nil
}

// windowStart returns the ack sequence from which the last w acked keys
// count as inside the write-back window: a key acked twice holds one cache
// slot, so the window is counted in keys, not acks; a batch's keys tie.
func (m *Model) windowStart(w int) int {
	if w <= 0 {
		return m.seq + 1
	}
	seqs := make([]int, 0, len(m.keys))
	for _, s := range m.keys {
		if s.clean && !s.deleted && s.seq > 0 {
			seqs = append(seqs, s.seq)
		}
	}
	if len(seqs) <= w {
		return 0
	}
	sort.Ints(seqs)
	return seqs[len(seqs)-w]
}

// Call is one cluster call on one key, begun by Propose or Read and settled
// by Answer.
type Call struct {
	key    fingerprint.Fingerprint
	val    uint64
	insert bool
	known  bool // some operation had written the key when the call began
	acked  bool // a put of the key had been acked when the call began
}

// Propose begins a LookupOrInsert of k with v: the call may write v.
func (m *Model) Propose(k fingerprint.Fingerprint, v uint64) Call {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.key(k)
	op := Call{key: k, val: v, insert: true, known: len(s.written) > 0, acked: s.seq > 0 && !s.deleted}
	s.written[v] = true
	return op
}

// Read begins a read-only Lookup of k.
func (m *Model) Read(k fingerprint.Fingerprint) Call {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.key(k)
	return Call{key: k, known: len(s.written) > 0, acked: s.seq > 0 && !s.deleted}
}

// Answer holds the cluster's answer to op to R1, R4 and R5 and records what
// it settled: a duplicate leaves k holding got, a "new" from an insert leaves
// it holding the proposed value.
func (m *Model) Answer(op Call, exists bool, got uint64, ex Excuse) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.key(op.key)
	switch {
	case exists && !op.known:
		return fmt.Errorf("R4: %s reported a duplicate (value %d), but nobody had written it", op.key.Short(), got)
	case exists && !s.written[got]:
		return fmt.Errorf("R1: %s answered with %d, a value no operation wrote for it", op.key.Short(), got)
	case !exists && op.acked:
		return fmt.Errorf("R5: acked %s answered new", op.key.Short())
	}
	if !op.insert {
		return nil
	}
	v := op.val
	if exists {
		v = got
	}
	m.seq++
	s.clean, s.deleted, s.val, s.seq = true, false, v, m.seq
	return nil
}
