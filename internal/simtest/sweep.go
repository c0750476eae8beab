package simtest

import (
	"fmt"
	"testing"
)

// Sweep kills a schedule at every write it issues. Probe runs the schedule
// to its end over a medium that never dies and returns how many writes it
// issued; Run checks that count against Floor and then calls Kill for every
// point from 1 to the count and every tear, each as the subtest
// kill=N/tear=B, so one point replays with -run.
type Sweep struct {
	Probe func(t *testing.T) int64
	// Floor is the fewest writes a schedule must issue to be worth sweeping.
	Floor int64
	// Tears are how many bytes of the killing write reach the medium; 0 is
	// an atomic device, which never performs the write. Empty means {0}.
	Tears []int
	// Through extends the sweep to at least this point. A schedule whose
	// write count depends on goroutine timing probes a different count each
	// run; sweeping past it keeps the points, and their subtest names, the
	// same every run. Kill must accept a point its run never reaches.
	Through int64
	// Step visits every Step-th point (0: every point).
	Step int64
	// RaceStep replaces Step under the race detector, for sweeps whose runs
	// start no goroutine the detector could catch and cost ten times more.
	RaceStep int64
	Kill     func(t *testing.T, kill int64, tear int)
}

// Run probes and sweeps. It stops at the first point that fails.
func (s Sweep) Run(t *testing.T) {
	t.Helper()
	writes := s.Probe(t)
	if t.Failed() {
		t.FailNow()
	}
	if writes < s.Floor {
		t.Fatalf("the schedule issued %d writes, fewer than the %d a meaningful sweep needs", writes, s.Floor)
	}
	tears := s.Tears
	if len(tears) == 0 {
		tears = []int{0}
	}
	step := s.Step
	if raceEnabled && s.RaceStep != 0 {
		step = s.RaceStep
	}
	step = max(step, 1)
	for k := int64(1); k <= max(writes, s.Through); k += step {
		ok := t.Run(fmt.Sprintf("kill=%d", k), func(t *testing.T) {
			for _, tear := range tears {
				if !t.Run(fmt.Sprintf("tear=%d", tear), func(t *testing.T) { s.Kill(t, k, tear) }) {
					return
				}
			}
		})
		if !ok {
			return
		}
	}
}
