package core

import (
	"math/bits"

	"shhc/internal/fingerprint"
)

// flightTable is a stripe's in-flight set: the fingerprints whose SSD phase
// runs outside the stripe lock, each with its flight (pipeline.go). Only the
// stripe's lock holder touches it. It is open-addressed with linear probing:
// a fingerprint's home slot is the top bits of its Bucket64, which the
// stripe selector (the low bits) leaves uniform. A delete shifts the probe
// run behind it back, so there are no tombstones, and the table doubles at
// half full and never shrinks: a stripe at steady state allocates nothing.
type flightTable struct {
	slots []flightSlot // a power of two long, or empty; f == nil marks a free slot
	n     int
	shift uint // 64 - log2(len(slots))
}

type flightSlot struct {
	fp fingerprint.Fingerprint
	f  *flight
}

// minFlightSlots is the size a table starts at, on its first put.
const minFlightSlots = 16

func (t *flightTable) home(fp fingerprint.Fingerprint) int {
	return int(fp.Bucket64() >> t.shift)
}

// get returns fp's flight, if it is in the air.
func (t *flightTable) get(fp fingerprint.Fingerprint) (*flight, bool) {
	if t.n == 0 {
		return nil, false
	}
	mask := len(t.slots) - 1
	for i := t.home(fp); ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.f == nil {
			return nil, false
		}
		if sl.fp == fp {
			return sl.f, true
		}
	}
}

// put makes f fp's flight, replacing any it had.
func (t *flightTable) put(fp fingerprint.Fingerprint, f *flight) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(fp); ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.f == nil {
			*sl = flightSlot{fp, f}
			t.n++
			return
		}
		if sl.fp == fp {
			sl.f = f
			return
		}
	}
}

// del removes fp's flight, if it has one. Each entry behind the hole in the
// probe run moves into it when the hole lies between the entry's home and
// where it sits, so every entry stays reachable from its home.
func (t *flightTable) del(fp fingerprint.Fingerprint) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	i := t.home(fp)
	for t.slots[i].f != nil && t.slots[i].fp != fp {
		i = (i + 1) & mask
	}
	if t.slots[i].f == nil {
		return
	}
	for j := (i + 1) & mask; t.slots[j].f != nil; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].fp))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = flightSlot{}
	t.n--
}

func (t *flightTable) grow() {
	old := t.slots
	size := max(minFlightSlots, 2*len(old))
	t.slots = make([]flightSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, sl := range old {
		if sl.f != nil {
			t.put(sl.fp, sl.f)
		}
	}
}
