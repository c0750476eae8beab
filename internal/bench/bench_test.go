package bench

import (
	"strings"
	"testing"
)

func TestRunFigure1SmallGrid(t *testing.T) {
	points, err := RunFigure1(Figure1Config{
		Requests:   5000,
		Rates:      []float64{20000, 100000},
		NodeCounts: []int{1, 4},
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("RunFigure1: %v", err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	// At 100k req/s the 4-node cluster must beat the single node.
	var one, four int64
	for _, p := range points {
		if p.RatePerSec != 100000 {
			continue
		}
		if p.Nodes == 1 {
			one = p.Result.ExecutionTime.Microseconds()
		} else {
			four = p.Result.ExecutionTime.Microseconds()
		}
	}
	if four >= one {
		t.Fatalf("4-node exec time (%dus) not below 1-node (%dus)", four, one)
	}
	out := FormatFigure1(points)
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "4 nodes") {
		t.Fatalf("FormatFigure1 output malformed:\n%s", out)
	}
}

func TestRunTable1SmallScale(t *testing.T) {
	rows, err := RunTable1(Table1Config{Scale: 256})
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Measured.Fingerprints == 0 {
			t.Fatalf("workload %s measured empty", r.Spec.Name)
		}
		diff := r.Measured.PctRedundant - r.Spec.PctRedundant
		if diff < -0.08 || diff > 0.08 {
			t.Fatalf("workload %s redundancy %.3f vs paper %.3f", r.Spec.Name, r.Measured.PctRedundant, r.Spec.PctRedundant)
		}
	}
	out := FormatTable1(rows, 256)
	if !strings.Contains(out, "Mail Server") {
		t.Fatalf("FormatTable1 output malformed:\n%s", out)
	}
}

func TestRunFigure5InProcess(t *testing.T) {
	points, err := RunFigure5(Figure5Config{
		NodeCounts:   []int{1, 2},
		BatchSizes:   []int{1, 128},
		Fingerprints: 4000,
		Scale:        512,
		UseTCP:       false,
	})
	if err != nil {
		t.Fatalf("RunFigure5: %v", err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for _, p := range points {
		if p.Throughput <= 0 {
			t.Fatalf("point %+v has zero throughput", p)
		}
	}
	out := FormatFigure5(points)
	if !strings.Contains(out, "Figure 5") {
		t.Fatalf("FormatFigure5 output malformed:\n%s", out)
	}
}

func TestRunFigure5TCPBatchingWins(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP throughput comparison is slow")
	}
	points, err := RunFigure5(Figure5Config{
		NodeCounts:   []int{2},
		BatchSizes:   []int{1, 128},
		Fingerprints: 6000,
		Scale:        512,
		UseTCP:       true,
	})
	if err != nil {
		t.Fatalf("RunFigure5: %v", err)
	}
	var unbatched, batched float64
	for _, p := range points {
		if p.BatchSize == 1 {
			unbatched = p.Throughput
		} else {
			batched = p.Throughput
		}
	}
	// The paper reports ~an order of magnitude; require at least 3x to
	// keep the test robust on loaded machines.
	if batched < 3*unbatched {
		t.Fatalf("batch=128 throughput %.0f not >> batch=1 %.0f", batched, unbatched)
	}
}

func TestRunFigure5SimShape(t *testing.T) {
	points, err := RunFigure5Sim([]int{1, 4}, []int{1, 128}, 20000)
	if err != nil {
		t.Fatalf("RunFigure5Sim: %v", err)
	}
	tp := map[[2]int]float64{}
	for _, p := range points {
		tp[[2]int{p.Nodes, p.BatchSize}] = p.Throughput
	}
	// Batching beats single queries at both sizes.
	if tp[[2]int{1, 128}] < 3*tp[[2]int{1, 1}] {
		t.Fatalf("simulated batching benefit missing: %v", tp)
	}
	// More nodes increase saturated capacity.
	if tp[[2]int{4, 128}] < 2*tp[[2]int{1, 128}] {
		t.Fatalf("simulated node scaling missing: %v", tp)
	}
	if s := FormatFigure5Sim(points); !strings.Contains(s, "cross-check") {
		t.Fatalf("FormatFigure5Sim output malformed:\n%s", s)
	}
}

func TestRunFigure6Balance(t *testing.T) {
	points, err := RunFigure6(Figure6Config{Nodes: 4, Scale: 256, Fingerprints: 20000})
	if err != nil {
		t.Fatalf("RunFigure6: %v", err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	totalShare := 0.0
	for _, p := range points {
		totalShare += p.Share
		if p.Share < 0.10 || p.Share > 0.40 {
			t.Fatalf("node %s share %.1f%%, want 25%% +/- 15", p.Node, p.Share*100)
		}
	}
	if totalShare < 0.999 || totalShare > 1.001 {
		t.Fatalf("shares sum to %v", totalShare)
	}
	out := FormatFigure6(points)
	if !strings.Contains(out, "Figure 6") {
		t.Fatalf("FormatFigure6 output malformed:\n%s", out)
	}
}
