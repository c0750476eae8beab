package main

import (
	"bytes"
	"fmt"

	"shhc/internal/fingerprint"
	"shhc/internal/trace"
)

// workload is one traffic mix. Every workload is a fixed request count per
// second of --seconds, so sample counts and the final table shape repeat
// from run to run and are the same on both sides of a comparison; the
// rates below are what the seed commit sustains on the 2-core sandbox, so
// a window lasts about as long as it was asked to.
type workload struct {
	name string
	// planSize is fingerprints per /v1/plan request.
	planSize int
	// plansPerSecond sizes the measured window: plans = plansPerSecond ×
	// window seconds. For the open loop it is also the arrival rate.
	plansPerSecond float64
	// preloadPlans are sent once during set-up; the window then replays
	// exactly those plans in order, cyclically. 0 means the window sends a
	// fresh stream instead.
	preloadPlans int
	// openLoop sends on a schedule and times each plan from its due time;
	// otherwise each client sends its next plan when the last one returns.
	openLoop bool
	// redundant, distance and runLength shape the fresh stream (trace.Spec).
	redundant float64
	distance  int
	runLength int
	writeBack bool
	// stream picks the trace seed lane: workloads with the same lane see
	// the same fingerprints for the same --seed.
	stream int
	guard  func(c windowCounters) []string
}

// The stack's LRU holds 2 × 65 536 = 131 072 entries. second_full's
// working set is 3× that, so a sequential replay never finds a plan's
// fingerprints still cached; incr_hot's is 0.73×, so it always does.
var workloads = []workload{
	{
		name: "first_full", planSize: 2048, plansPerSecond: 110, stream: 0,
		guard: func(c windowCounters) []string {
			return need(c.bloomShortRatio() >= 0.95, "first_full: node.bloom_short_ratio %.3f < 0.95", c.bloomShortRatio())
		},
	},
	{
		name: "second_full", planSize: 2048, plansPerSecond: 135, preloadPlans: 192, stream: 1,
		guard: func(c windowCounters) []string {
			return append(append(
				need(c.cacheHitRatio() <= 0.01, "second_full: node.cache_hit_ratio %.3f > 0.01", c.cacheHitRatio()),
				need(c.storeHitRatio() >= 0.99, "second_full: node.store_hit_ratio %.3f < 0.99", c.storeHitRatio())...),
				need(c.pageWrites == 0, "second_full: %d page writes in the window", c.pageWrites)...)
		},
	},
	{
		name: "incr_hot", planSize: 2048, plansPerSecond: 580, preloadPlans: 47, stream: 2,
		guard: func(c windowCounters) []string {
			return append(
				need(c.cacheHitRatio() >= 0.99, "incr_hot: node.cache_hit_ratio %.3f < 0.99", c.cacheHitRatio()),
				need(c.pageWrites == 0, "incr_hot: %d page writes in the window", c.pageWrites)...)
		},
	},
	{
		name: "chatty", planSize: 8, plansPerSecond: 60, openLoop: true, stream: 3,
		// Duplicate runs of 4, not trace's default 32: a round is only
		// ~1 400 fingerprints, and with long runs the number of distinct
		// ones — the denominator of storage_bytes_per_fp — would swing by
		// ±10 % from seed to seed.
		redundant: 0.5, distance: 2000, runLength: 4,
		guard: func(c windowCounters) []string {
			return need(c.batcherQueries == 8*c.plans, "chatty: batcher.queries %d != 8 × %d plans", c.batcherQueries, c.plans)
		},
	},
	{
		name: "first_full_wb", planSize: 2048, plansPerSecond: 60, writeBack: true, stream: 0,
		guard: func(c windowCounters) []string {
			return need(c.destageWaves > 0, "first_full_wb: node.destage_waves = 0")
		},
	},
}

func need(ok bool, format string, args ...any) []string {
	if ok {
		return nil
	}
	return []string{fmt.Sprintf(format, args...)}
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// requests is one round's generated traffic: the only thing the stack ever
// sees, and everything the oracle knows.
type requests struct {
	// bodies are the distinct pre-encoded /v1/plan bodies; fps are their
	// fingerprints.
	bodies [][]byte
	fps    [][]fingerprint.Fingerprint
	// preload is how many leading bodies set-up sends before the window.
	preload int
	// window is the number of requests the window sends; request seq uses
	// bodies[bodyOf(seq)].
	window int
	// windowNew is the number of first occurrences in the window's stream:
	// Σ missing over the window's answers must equal it exactly.
	windowNew int
	// distinct is how many fingerprints the store must hold at the end.
	distinct int
}

func (r *requests) bodyOf(seq int) int {
	if r.preload > 0 {
		return seq % r.preload
	}
	return seq
}

// traceSeed derives the trace.Spec seed. trace mints unique fingerprints
// from seed<<40, so distinct (seed, round, stream) triples never collide.
func traceSeed(seed int64, round, stream int) int64 {
	return (seed%100000)*64 + int64(round)*8 + int64(stream) + 1
}

func generate(w *workload, seed int64, round int, windowSeconds float64, scale int) *requests {
	window := int(w.plansPerSecond*windowSeconds) / scale
	if window < 4 {
		window = 4
	}
	r := &requests{preload: w.preloadPlans / scale, window: window}
	if w.preloadPlans > 0 && r.preload < 2 {
		r.preload = 2
	}
	nbodies := window
	if r.preload > 0 {
		nbodies = r.preload
	}
	spec := trace.Spec{
		Name:          w.name,
		Fingerprints:  nbodies * w.planSize,
		PctRedundant:  w.redundant,
		Distance:      w.distance,
		MeanRunLength: w.runLength,
		Seed:          traceSeed(seed, round, w.stream),
	}
	gen := trace.NewGenerator(spec)
	var seen map[fingerprint.Fingerprint]struct{}
	if w.redundant > 0 {
		seen = make(map[fingerprint.Fingerprint]struct{}, spec.Fingerprints)
	}
	for b := 0; b < nbodies; b++ {
		fps := make([]fingerprint.Fingerprint, w.planSize)
		for i := range fps {
			fps[i], _ = gen.Next()
			if seen != nil {
				seen[fps[i]] = struct{}{}
			}
		}
		r.fps = append(r.fps, fps)
		r.bodies = append(r.bodies, encodePlan(fps))
	}
	// With no redundancy asked for, trace only ever mints fresh
	// fingerprints, so every one is a first occurrence.
	r.distinct = spec.Fingerprints
	if seen != nil {
		r.distinct = len(seen)
	}
	if r.preload == 0 {
		r.windowNew = r.distinct
	}
	return r
}

func encodePlan(fps []fingerprint.Fingerprint) []byte {
	var b bytes.Buffer
	b.Grow(len(fps)*43 + 32)
	b.WriteString(`{"fingerprints":[`)
	for i, fp := range fps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('"')
		b.WriteString(fp.String())
		b.WriteByte('"')
	}
	b.WriteString("]}")
	return b.Bytes()
}
