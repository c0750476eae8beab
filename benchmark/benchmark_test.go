package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"shhc/internal/core"
)

// smokeScale keeps every working set in its ratio to the LRU — a plan is
// 2 048 fingerprints and cannot be divided, so 1/16 is as small as
// incr_hot's set still fits the cache and second_full's still does not.
const smokeScale = 16

func smokeOptions(t *testing.T) options {
	return options{seed: 7, seconds: 3, rounds: 2, scale: smokeScale, dataDir: t.TempDir(), stack: defaultStack()}
}

// TestSmoke runs all five workloads on both stacks at small scale: every
// answer is checked, every shape guard holds, and the metric and workload
// names the binary emits are exactly those of BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	o := smokeOptions(t)
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := measureAndCheck(o, spec, w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 {
				t.Errorf("%s traced=%v: %d failed: %v", w.name, traced, res.failed, res.violations)
			}
			if !traced {
				for _, m := range spec.EndToEnd {
					if v := res.metrics[m.Name]; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must be a positive number", w.name, m.Name, v)
					}
				}
				continue
			}
			if w.name != "chatty" {
				// The open loop's latency runs from the due time, which
				// nothing below the load generator can account for.
				if u := res.metrics["budget.unattributed_pct"]; u > 10 {
					t.Errorf("%s: budget.unattributed_pct = %.1f, want <= 10", w.name, u)
				}
			}
			var rows float64
			for _, l := range budgetLayers {
				rows += res.budget.rows[l]
			}
			rows += res.budget.planMs * res.budget.unattributedPct / 100
			if math.Abs(rows-res.budget.planMs) > 1e-6*res.budget.planMs {
				t.Errorf("%s: budget rows sum to %.6f ms, traced mean plan latency is %.6f ms", w.name, rows, res.budget.planMs)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke test took %v, want < 10s", d)
	}
}

// TestDecoratorsKeepThePath sends the same single-client traffic through
// the undecorated and the traced stack and requires identical tier
// counters and identical page reads and writes: the decorators forward
// every optional interface, so core never falls back to a per-key loop and
// the traced run measures the same program.
func TestDecoratorsKeepThePath(t *testing.T) {
	cfg := defaultStack().scaled(smokeScale)
	cfg.Clients = 1
	w, _ := findWorkload("second_full")
	reqs := generate(w, 3, 0, 1, smokeScale)
	type tiers struct {
		Lookups, Inserts, CacheHits, BloomShort, StoreHits, StoreMisses, BloomFalse, Coalesced uint64
		PageReads, PageWrites                                                                  int64
	}
	run := func(tr *tracer) []tiers {
		st, err := buildStack(cfg, t.TempDir(), false, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		lg := newLoadgen(st.url, 1)
		defer lg.close()
		// First pass inserts (PutBatch), second pass replays a set larger
		// than the cache (GetBatch), third is a chatty plan through the
		// batcher (single-key verbs).
		for _, preload := range []bool{true, false} {
			for _, s := range lg.closedLoop(reqs, w.planSize, reqs.preload, preload) {
				if s.err != nil {
					t.Fatal(s.err)
				}
			}
		}
		if _, err := lg.plan(lg.clients[0], 0, encodePlan(reqs.fps[0][:8]), 8); err != nil {
			t.Fatal(err)
		}
		var out []tiers
		for _, np := range st.nodes {
			ns, err := np.node.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			dev := np.db.Stats().Device
			out = append(out, tiers{ns.Lookups, ns.Inserts, ns.CacheHits, ns.BloomShort, ns.StoreHits,
				ns.StoreMisses, ns.BloomFalse, ns.Coalesced, dev.Reads, dev.Writes})
		}
		return out
	}
	plain, traced := run(nil), run(&tracer{})
	for i := range plain {
		if plain[i] != traced[i] {
			t.Errorf("node %d: undecorated %+v, traced %+v", i, plain[i], traced[i])
		}
		if plain[i].StoreHits == 0 || plain[i].BloomShort == 0 {
			t.Errorf("node %d: the traffic never reached the store: %+v", i, plain[i])
		}
	}
}

// TestDecoratorsForwardOptionalInterfaces pins the assertions core, rpc
// and webfront make on what they are handed.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	var (
		store  any = &tracedStore{}
		client any = &tracedClient{}
		node   any = &tracedNode{}
	)
	if _, ok := store.(interface {
		core.Ranger
		core.Deleter
	}); !ok {
		t.Error("tracedStore is not a Ranger and Deleter")
	}
	if _, ok := client.(core.RepairApplier); !ok {
		t.Error("tracedClient is not a RepairApplier")
	}
	if _, ok := client.(core.Migrator); ok {
		t.Error("tracedClient is a Migrator; *rpc.Client is not")
	}
	if _, ok := node.(interface {
		core.RepairApplier
		core.Migrator
	}); !ok {
		t.Error("tracedNode is not a RepairApplier and Migrator")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "fps_per_s", Better: "higher", Bound: 0.1},
		{Name: "plan_p50_ms", Better: "lower", Bound: 0.1},
		{Name: "plan_p95_ms", Better: "lower", Bound: 0.1},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	file := func(fps, p50, p95 []float64) *resultFile {
		f := &resultFile{Results: map[string]map[string]series{}}
		for i := range fps {
			f.add("w", spec.EndToEnd, map[string]float64{"fps_per_s": fps[i], "plan_p50_ms": p50[i], "plan_p95_ms": p95[i]})
		}
		return f
	}
	old := file([]float64{100, 101, 99}, []float64{10, 10.1, 9.9}, []float64{20, 20.1, 19.9})
	cur := file([]float64{80, 81, 79}, []float64{8, 8.1, 7.9}, []float64{20, 30, 10})
	var out bytes.Buffer
	regressed, unresolved := compare(&out, spec, old, cur)
	if regressed != 1 || unresolved != 1 {
		t.Errorf("regressed %d unresolved %d, want 1 and 1\n%s", regressed, unresolved, out.String())
	}
	for _, want := range []string{"regressed", "improved", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no %q row in\n%s", want, out.String())
		}
	}
}
