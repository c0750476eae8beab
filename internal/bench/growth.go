package bench

// ---------------------------------------------------------------------------
// Growth benchmark: what overfilling a fixed table costs, and what online
// linear-hashing splits buy back.
//
// Two tables are given the same ExpectedItems estimate — one with resizing
// off, whose bucket region is sized from it once and fixed forever (the
// pre-v4 behaviour), and one with resizing on, which ignores the estimate,
// starts at hashdb's small base and splits to the size of its content, so
// the two differ from the first insert — then both are filled in waves to
// 0.5×, 1×, 2×, 4× and 8× the estimate. Every wave measures batched insert
// throughput and lookup throughput over a 50% present / 50% absent probe
// mix, plus the table-shape stats (buckets, max chain, load factor, splits,
// free pages) that explain the curves. The fixed table's chains grow
// linearly with overfill so lookups degrade with every wave; the resizable
// table splits buckets to hold its load factor and its lookup cost stays
// flat. BENCH_growth.json is the artifact.
// ---------------------------------------------------------------------------

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"shhc/internal/device"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

// growthWaves are the cumulative fill targets as multiples of the
// create-time ExpectedItems estimate.
var growthWaves = []float64{0.5, 1, 2, 4, 8}

// growthBatch is the insert/lookup batch size; matches the pipeline's
// typical destage group.
const growthBatch = 256

// GrowthPoint is one (table kind, fill wave) cell of the growth benchmark.
type GrowthPoint struct {
	// Kind is "fixed" (resize off) or "resizable" (resize on).
	Kind string `json:"kind"`
	// Wave is the cumulative fill as a multiple of ExpectedItems.
	Wave float64 `json:"wave"`
	// Entries is the number of keys resident after the wave's inserts.
	Entries int `json:"entries"`
	// InsertThroughput covers this wave's batched inserts (keys/sec).
	InsertThroughput float64 `json:"insertOpsPerSec"`
	// LookupThroughput covers the post-wave probe mix (keys/sec), half
	// present and half absent.
	LookupThroughput float64 `json:"lookupOpsPerSec"`
	// Table shape after the wave.
	Buckets    uint64  `json:"buckets"`
	Splits     uint64  `json:"splits"`
	MaxChain   uint64  `json:"maxChain"`
	LoadFactor float64 `json:"loadFactor"`
	Pages      uint64  `json:"pages"`
	FreePages  uint64  `json:"freePages"`
}

// RunGrowthSweep fills a fixed and a resizable table to 8× their shared
// ExpectedItems estimate and measures insert/lookup throughput per wave.
// expected <= 0 selects the default estimate.
func RunGrowthSweep(expected int) ([]GrowthPoint, error) {
	if expected <= 0 {
		expected = 8192
	}
	dir, err := os.MkdirTemp("", "shhc-growth-sweep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var points []GrowthPoint
	for _, kind := range []string{"fixed", "resizable"} {
		kp, err := runGrowthKind(dir, kind, expected)
		if err != nil {
			return nil, fmt.Errorf("bench: growth %s table: %w", kind, err)
		}
		points = append(points, kp...)
	}
	return points, nil
}

func runGrowthKind(dir, kind string, expected int) ([]GrowthPoint, error) {
	mode := hashdb.ResizeOff
	if kind == "resizable" {
		mode = hashdb.ResizeOn
	}
	path := filepath.Join(dir, kind+".shdb")
	db, err := hashdb.Create(path, hashdb.Options{
		ExpectedItems: expected,
		Resize:        mode,
		Device:        device.New(device.SSD, device.Account),
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()

	ctx := context.Background()
	var points []GrowthPoint
	inserted := 0
	for _, wave := range growthWaves {
		target := int(wave * float64(expected))

		// Insert this wave's delta in pipeline-sized batches.
		delta := target - inserted
		start := time.Now()
		for base := inserted; base < target; base += growthBatch {
			n := growthBatch
			if base+n > target {
				n = target - base
			}
			pairs := make([]hashdb.Pair, n)
			for i := range pairs {
				k := uint64(base + i)
				pairs[i] = hashdb.Pair{FP: fingerprint.FromUint64(k), Val: hashdb.Value(k)}
			}
			if _, _, err := db.PutBatch(ctx, pairs); err != nil {
				return nil, err
			}
		}
		insertElapsed := time.Since(start)
		inserted = target

		// Probe a 50% present / 50% absent mix. Absent keys come from a
		// disjoint counter range so they hash uniformly but never match —
		// each one walks its full chain, the worst case the Bloom filter
		// normally absorbs upstream. One untimed pass warms the page
		// cache; the fastest of three timed passes drops scheduler noise.
		probes := 2 * expected
		probe := func() (time.Duration, error) {
			start := time.Now()
			for base := 0; base < probes; base += growthBatch {
				n := growthBatch
				if base+n > probes {
					n = probes - base
				}
				fps := make([]fingerprint.Fingerprint, n)
				for i := range fps {
					j := base + i
					if j%2 == 0 {
						fps[i] = fingerprint.FromUint64(uint64((j / 2) % inserted))
					} else {
						fps[i] = fingerprint.FromUint64(uint64(j) + 1<<40)
					}
				}
				if _, _, err := db.GetBatch(ctx, fps); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}
		if _, err := probe(); err != nil {
			return nil, err
		}
		lookupElapsed := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			d, err := probe()
			if err != nil {
				return nil, err
			}
			if d < lookupElapsed {
				lookupElapsed = d
			}
		}

		st := db.Stats()
		points = append(points, GrowthPoint{
			Kind:             kind,
			Wave:             wave,
			Entries:          inserted,
			InsertThroughput: float64(delta) / insertElapsed.Seconds(),
			LookupThroughput: float64(probes) / lookupElapsed.Seconds(),
			Buckets:          st.Buckets,
			Splits:           st.Splits,
			MaxChain:         st.MaxChain,
			LoadFactor:       st.LoadFactor,
			Pages:            st.Pages,
			FreePages:        st.FreePages,
		})
	}
	return points, nil
}

// FormatGrowthSweep renders the sweep as a text table.
func FormatGrowthSweep(points []GrowthPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %9s %12s %12s %9s %7s %9s %7s\n",
		"kind", "wave", "entries", "insert/s", "lookup/s", "buckets", "splits", "maxchain", "lf")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %5.1fx %9d %12.0f %12.0f %9d %7d %9d %7.2f\n",
			p.Kind, p.Wave, p.Entries, p.InsertThroughput, p.LookupThroughput,
			p.Buckets, p.Splits, p.MaxChain, p.LoadFactor)
	}
	return b.String()
}

// EmitGrowthJSON writes the sweep to path as the BENCH_growth.json artifact.
func EmitGrowthJSON(path string, points []GrowthPoint) error {
	data, err := json.MarshalIndent(struct {
		Experiment string        `json:"experiment"`
		Points     []GrowthPoint `json:"points"`
	}{Experiment: "online-growth", Points: points}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
