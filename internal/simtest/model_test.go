package simtest

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"shhc/internal/fingerprint"
)

func key(k uint64) fingerprint.Fingerprint { return fingerprint.FromUint64(k) }

// mapTarget is a store that keeps everything: the honest side of every check.
type mapTarget map[fingerprint.Fingerprint]uint64

func (m mapTarget) PutBatch(fps []fingerprint.Fingerprint, vals []uint64) ([]uint64, error) {
	for i, f := range fps {
		m[f] = vals[i]
	}
	return vals, nil
}

func (m mapTarget) Put(f fingerprint.Fingerprint, v uint64) (uint64, error) {
	m[f] = v
	return v, nil
}

func (m mapTarget) Delete(f fingerprint.Fingerprint) error {
	delete(m, f)
	return nil
}

func (mapTarget) Sync() error    { return nil }
func (mapTarget) Compact() error { return nil }

func (m mapTarget) get(f fingerprint.Fingerprint) (uint64, bool, error) {
	v, ok := m[f]
	return v, ok, nil
}

// wantRule fails unless err is a violation of rule.
func wantRule(t *testing.T, err error, rule string) {
	t.Helper()
	if err == nil || !strings.HasPrefix(err.Error(), rule+":") {
		t.Fatalf("got %v, want a %s violation", err, rule)
	}
}

// TestModelFlagsEachRule plants one violation of each rule into an
// otherwise honest run; the model must name it, and pass the honest run.
func TestModelFlagsEachRule(t *testing.T) {
	sched := Schedule{
		{Kind: PutBatch, Keys: Span(0, 8), Gen: 1},
		{Kind: Put, Keys: Span(2, 4), Gen: 2},
		{Kind: Delete, Keys: Span(6, 8)},
	}
	run := func() (*Model, mapTarget) {
		m, tg := NewModel(), mapTarget{}
		if err := sched.Run(tg, m); err != nil {
			t.Fatal(err)
		}
		return m, tg
	}
	m, tg := run()
	if err := m.Check(tg.get, Excuse{}); err != nil {
		t.Fatalf("honest store: %v", err)
	}
	for _, c := range []struct {
		name, rule string
		plant      func(mapTarget)
	}{
		{"lost ack", "R2", func(tg mapTarget) { delete(tg, key(3)) }},
		{"stale value", "R2", func(tg mapTarget) { tg[key(3)] = Val(3, 1) }},
		{"invented value", "R1", func(tg mapTarget) { tg[key(4)] = 777 }},
		{"resurrected delete", "R3", func(tg mapTarget) { tg[key(6)] = Val(6, 1) }},
	} {
		m, tg := run()
		c.plant(tg)
		wantRule(t, m.Check(tg.get, Excuse{}), c.rule)
	}

	// The cluster-side rules. An acked key answered "new" breaks R5; a key
	// nobody wrote answered "duplicate" breaks R4.
	m = NewModel()
	if err := m.Answer(m.Propose(key(1), 10), false, 0, Excuse{}); err != nil {
		t.Fatalf("first insert: %v", err)
	}
	if err := m.Answer(m.Propose(key(1), 11), true, 10, Excuse{}); err != nil {
		t.Fatalf("honest duplicate: %v", err)
	}
	wantRule(t, m.Answer(m.Propose(key(1), 12), false, 0, Excuse{}), "R5")
	wantRule(t, m.Answer(m.Read(key(1)), false, 0, Excuse{}), "R5")
	wantRule(t, m.Answer(m.Propose(key(2), 20), true, 20, Excuse{}), "R4")
	wantRule(t, m.Answer(m.Read(key(3)), true, 30, Excuse{}), "R4")
	wantRule(t, m.Answer(m.Propose(key(1), 13), true, 99, Excuse{}), "R1")
}

// TestModelExcuses: each excuse admits exactly its own loss.
func TestModelExcuses(t *testing.T) {
	m, tg := NewModel(), mapTarget{}
	if err := (Schedule{{Kind: Put, Keys: Span(0, 10), Gen: 1}}).Run(tg, m); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	m.AckPut(key(50), 1) // an ack after the crash settles nothing
	delete(tg, key(9))
	delete(tg, key(8))
	if err := m.Check(tg.get, Excuse{Window: 2}); err != nil {
		t.Fatalf("the last two acks lost inside a window of 2: %v", err)
	}
	wantRule(t, m.Check(tg.get, Excuse{Window: 1}), "R2")
	if err := m.Check(tg.get, Excuse{Torn: true}); err != nil {
		t.Fatalf("loss under a reported torn page: %v", err)
	}
	delete(tg, key(0))
	wantRule(t, m.Check(tg.get, Excuse{Window: 2}), "R2")

	// A batch shares one place in the window.
	m, tg = NewModel(), mapTarget{}
	if err := (Schedule{{Kind: Put, Keys: Span(0, 3), Gen: 1}, {Kind: PutBatch, Keys: Span(3, 6), Gen: 1}}).Run(tg, m); err != nil {
		t.Fatal(err)
	}
	delete(tg, key(3))
	delete(tg, key(5))
	if err := m.Check(tg.get, Excuse{Window: 1}); err != nil {
		t.Fatalf("a batch's keys lost inside a window of 1 ack: %v", err)
	}
}

// TestModelUnackedEitherWay: an op the crash cut short may land or not.
func TestModelUnackedEitherWay(t *testing.T) {
	for _, landed := range []bool{false, true} {
		m, tg := NewModel(), mapTarget{}
		if err := (Schedule{{Kind: Put, Keys: Span(0, 2), Gen: 1}}).Run(tg, m); err != nil {
			t.Fatal(err)
		}
		m.Put(key(0), Val(0, 2))
		m.Delete(key(1))
		m.Put(key(2), Val(2, 2))
		if landed {
			tg[key(0)], tg[key(2)] = Val(0, 2), Val(2, 2)
			delete(tg, key(1))
		}
		if err := m.Check(tg.get, Excuse{}); err != nil {
			t.Fatalf("landed=%v: %v", landed, err)
		}
	}
}

// failAt fails the n-th write it is asked for.
type failAt struct {
	mapTarget
	n int
}

var errFail = errors.New("killed")

func (f *failAt) Put(k fingerprint.Fingerprint, v uint64) (uint64, error) {
	if f.n--; f.n == 0 {
		return 0, errFail
	}
	return f.mapTarget.Put(k, v)
}

// TestScheduleRunStopsUnacked: the op that fails stays unacked, so a
// store that never took it passes.
func TestScheduleRunStopsUnacked(t *testing.T) {
	m, tg := NewModel(), &failAt{mapTarget{}, 3}
	if err := (Schedule{{Kind: Put, Keys: Span(0, 5), Gen: 1}}).Run(tg, m); !errors.Is(err, errFail) {
		t.Fatalf("Run = %v, want the injected failure", err)
	}
	if err := m.Check(tg.get, Excuse{}); err != nil {
		t.Fatal(err)
	}
	if len(tg.mapTarget) != 2 {
		t.Fatalf("store holds %d keys, want the 2 acked", len(tg.mapTarget))
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	a, b, c := Generate(7, 100, 40), Generate(7, 100, 40), Generate(8, 100, 40)
	same := func(x, y Schedule) bool {
		return slices.EqualFunc(x, y, func(p, q Op) bool { return p.Kind == q.Kind && p.Gen == q.Gen && slices.Equal(p.Keys, q.Keys) })
	}
	if !same(a, b) || same(a, c) {
		t.Fatal("Generate is not a function of its seed")
	}
	kinds := make(map[Kind]int)
	for _, op := range Generate(1, 100, 400) {
		kinds[op.Kind]++
	}
	if len(kinds) != 5 {
		t.Fatalf("400 generated ops use kinds %v, want all five", slices.Collect(maps.Keys(kinds)))
	}
}

// TestSweepVisitsEveryPoint: every kill point from 1 to the probe's count,
// each with every tear, in order.
func TestSweepVisitsEveryPoint(t *testing.T) {
	var got []string
	Sweep{
		Probe: func(*testing.T) int64 { return 3 },
		Floor: 3,
		Tears: []int{0, 7},
		Kill:  func(t *testing.T, kill int64, tear int) { got = append(got, t.Name()) },
	}.Run(t)
	want := []string{
		"TestSweepVisitsEveryPoint/kill=1/tear=0", "TestSweepVisitsEveryPoint/kill=1/tear=7",
		"TestSweepVisitsEveryPoint/kill=2/tear=0", "TestSweepVisitsEveryPoint/kill=2/tear=7",
		"TestSweepVisitsEveryPoint/kill=3/tear=0", "TestSweepVisitsEveryPoint/kill=3/tear=7",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
}

// TestSweepThroughExtendsPastProbe: Through adds the points past a short
// probe's count and never cuts a longer one short.
func TestSweepThroughExtendsPastProbe(t *testing.T) {
	for _, tc := range []struct {
		probe, through int64
		want           []int64
	}{
		{probe: 2, through: 5, want: []int64{1, 3, 5}},
		{probe: 7, through: 5, want: []int64{1, 3, 5, 7}},
	} {
		var got []int64
		Sweep{
			Probe:   func(*testing.T) int64 { return tc.probe },
			Through: tc.through,
			Step:    2,
			Kill:    func(_ *testing.T, kill int64, _ int) { got = append(got, kill) },
		}.Run(t)
		if !slices.Equal(got, tc.want) {
			t.Fatalf("probe %d through %d: visited %v, want %v", tc.probe, tc.through, got, tc.want)
		}
	}
}
