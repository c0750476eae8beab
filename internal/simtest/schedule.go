package simtest

import (
	"math/rand"

	"shhc/internal/fingerprint"
)

// Kind is what one schedule op does.
type Kind uint8

const (
	PutBatch Kind = iota // one batched write of every key
	Put                  // one write per key
	Delete               // one delete per key
	Sync                 // a durability barrier
	Compact              // a compaction pass, where the target has one
)

// Op is one step of a schedule. The value it writes for key k is Val(k, Gen).
type Op struct {
	Kind Kind
	Keys []uint64
	Gen  uint64
}

// Schedule is a workload kept as data: the same ops run against a table, a
// node or a model.
type Schedule []Op

// Val is the value generation gen writes for key k: distinct per key and
// generation while gen < 1000, so a value read back names its writer.
func Val(k, gen uint64) uint64 { return k*1000 + gen }

// Span returns the keys from, from+1, ..., to-1.
func Span(from, to uint64) []uint64 {
	keys := make([]uint64, 0, to-from)
	for k := from; k < to; k++ {
		keys = append(keys, k)
	}
	return keys
}

// Target is what a schedule runs against. A put returns the value the key
// holds once it is acknowledged: the value written, or, on a target that
// deduplicates, the one it already held.
type Target interface {
	PutBatch(fps []fingerprint.Fingerprint, vals []uint64) ([]uint64, error)
	Put(fp fingerprint.Fingerprint, v uint64) (uint64, error)
	Delete(fp fingerprint.Fingerprint) error
	Sync() error
	Compact() error
}

// Run applies s to tg, recording each attempt and each ack in m. It stops at
// the first error, which it returns: the op that failed stays unacked.
func (s Schedule) Run(tg Target, m *Model) error {
	for _, op := range s {
		fps := make([]fingerprint.Fingerprint, len(op.Keys))
		for i, k := range op.Keys {
			fps[i] = fingerprint.FromUint64(k)
		}
		switch op.Kind {
		case PutBatch:
			vals := make([]uint64, len(fps))
			for i, k := range op.Keys {
				vals[i] = Val(k, op.Gen)
				m.Put(fps[i], vals[i])
			}
			got, err := tg.PutBatch(fps, vals)
			if err != nil {
				return err
			}
			m.AckBatch(fps, got)
		case Put:
			for i, f := range fps {
				v := Val(op.Keys[i], op.Gen)
				m.Put(f, v)
				got, err := tg.Put(f, v)
				if err != nil {
					return err
				}
				m.AckPut(f, got)
			}
		case Delete:
			for _, f := range fps {
				m.Delete(f)
				if err := tg.Delete(f); err != nil {
					return err
				}
				m.AckDelete(f)
			}
		case Sync:
			if err := tg.Sync(); err != nil {
				return err
			}
		case Compact:
			if err := tg.Compact(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Generate returns a random schedule of n ops over the keys [0, keys): puts
// (batched and single, new keys and updates), deletes of keys it put
// before, syncs and compactions. The same seed gives the same schedule.
func Generate(seed int64, keys uint64, n int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	var s Schedule
	var put []uint64
	pick := func(from []uint64, most int) []uint64 {
		seen := make(map[uint64]bool)
		var ks []uint64
		for range 1 + rng.Intn(most) {
			var k uint64
			if from == nil {
				k = uint64(rng.Int63n(int64(keys)))
			} else {
				k = from[rng.Intn(len(from))]
			}
			if !seen[k] {
				seen[k] = true
				ks = append(ks, k)
			}
		}
		return ks
	}
	for i := range n {
		op := Op{Gen: uint64(i%999) + 1}
		switch r := rng.Intn(10); {
		case r < 4:
			op.Kind, op.Keys = PutBatch, pick(nil, 40)
		case r < 6:
			op.Kind, op.Keys = Put, pick(nil, 5)
		case r < 8 && len(put) > 0:
			op.Kind, op.Keys = Delete, pick(put, 5)
		case r < 9:
			op.Kind = Sync
		default:
			op.Kind = Compact
		}
		if op.Kind == PutBatch || op.Kind == Put {
			put = append(put, op.Keys...)
		}
		s = append(s, op)
	}
	return s
}
