package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"shhc/internal/baseline"
	"shhc/internal/core"
	"shhc/internal/device"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
	"shhc/internal/trace"
)

// ---------------------------------------------------------------------------
// Ablation: batch size sweep (the latency/throughput tradeoff the paper
// leaves as future work in §V).
// ---------------------------------------------------------------------------

// BatchSweepPoint is one batch size's throughput/latency tradeoff.
type BatchSweepPoint struct {
	BatchSize    int
	Throughput   float64
	MeanPerBatch time.Duration // round-trip time of one batch request
}

// RunBatchSweep measures throughput and per-request latency across batch
// sizes on a fixed-size TCP cluster.
func RunBatchSweep(nodes, fingerprints, scale int, batchSizes []int) ([]BatchSweepPoint, error) {
	if len(batchSizes) == 0 {
		batchSizes = []int{1, 8, 32, 128, 512, 2048}
	}
	fps := drainInterleave(mixedWorkload(scale, 2048), fingerprints)

	var points []BatchSweepPoint
	for _, batch := range batchSizes {
		tc, err := buildTCPCluster(nodes, 1<<14, len(fps)+1, 4)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var batches int
		pairs := make([]core.Pair, 0, batch)
		for i, fp := range fps {
			pairs = append(pairs, core.Pair{FP: fp, Val: core.Value(i + 1)})
			if len(pairs) >= batch {
				if _, err := tc.cluster.BatchLookupOrInsert(context.Background(), pairs); err != nil {
					tc.Close()
					return nil, err
				}
				batches++
				pairs = pairs[:0]
			}
		}
		if len(pairs) > 0 {
			if _, err := tc.cluster.BatchLookupOrInsert(context.Background(), pairs); err != nil {
				tc.Close()
				return nil, err
			}
			batches++
		}
		elapsed := time.Since(start)
		tc.Close()

		p := BatchSweepPoint{
			BatchSize:  batch,
			Throughput: float64(len(fps)) / elapsed.Seconds(),
		}
		if batches > 0 {
			p.MeanPerBatch = elapsed / time.Duration(batches)
		}
		points = append(points, p)
	}
	return points, nil
}

// FormatBatchSweep renders the sweep.
func FormatBatchSweep(points []BatchSweepPoint) string {
	t := &table{header: []string{"batch", "throughput(chunks/s)", "mean batch RTT"}}
	for _, p := range points {
		t.addRow(
			fmt.Sprintf("%d", p.BatchSize),
			fmt.Sprintf("%.0f", p.Throughput),
			p.MeanPerBatch.Round(time.Microsecond).String(),
		)
	}
	return "Ablation: batch size sweep (single sequential client, TCP cluster)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Ablation: LRU cache size (how much RAM absorbs the lookup load).
// ---------------------------------------------------------------------------

// CacheSweepPoint is one cache size's effectiveness.
type CacheSweepPoint struct {
	CacheSize int
	HitRate   float64
	SSDReads  int64
}

// RunCacheSweep replays a high-redundancy workload (Mail Server) through
// single nodes with varying cache sizes.
func RunCacheSweep(scale int, cacheSizes []int) ([]CacheSweepPoint, error) {
	if len(cacheSizes) == 0 {
		cacheSizes = []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}
	}
	spec := trace.MailServer.Scaled(scale)
	fps := trace.NewGenerator(spec).Drain()

	var points []CacheSweepPoint
	for _, size := range cacheSizes {
		dev := device.New(device.SSD, device.Account)
		node, err := core.NewNode(core.NodeConfig{
			ID:            "cache-sweep",
			Store:         hashdb.NewMemStore(dev),
			CacheSize:     size,
			BloomExpected: len(fps) + 1,
		})
		if err != nil {
			return nil, err
		}
		for i, fp := range fps {
			if _, err := node.LookupOrInsert(context.Background(), fp, core.Value(i+1)); err != nil {
				node.Close()
				return nil, err
			}
		}
		st, err := node.Stats(context.Background())
		if err != nil {
			node.Close()
			return nil, err
		}
		devStats := dev.Stats()
		node.Close()
		points = append(points, CacheSweepPoint{
			CacheSize: size,
			HitRate:   float64(st.CacheHits) / float64(st.Lookups),
			SSDReads:  devStats.Reads,
		})
	}
	return points, nil
}

// FormatCacheSweep renders the sweep.
func FormatCacheSweep(points []CacheSweepPoint) string {
	t := &table{header: []string{"cache entries", "hit rate", "ssd reads"}}
	for _, p := range points {
		t.addRow(
			fmt.Sprintf("%d", p.CacheSize),
			fmt.Sprintf("%.1f%%", p.HitRate*100),
			fmt.Sprintf("%d", p.SSDReads),
		)
	}
	return "Ablation: LRU cache size (Mail Server workload, single node)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Ablation: Bloom filter on/off.
// ---------------------------------------------------------------------------

// BloomPoint compares SSD reads with and without the filter.
type BloomPoint struct {
	Bloom    bool
	SSDReads int64
	Elapsed  time.Duration
}

// RunBloomAblation replays a low-redundancy workload (Web Server: 18%)
// through nodes with and without Bloom filters. Without the filter, every
// new fingerprint costs an SSD read that discovers nothing.
func RunBloomAblation(scale int) ([]BloomPoint, error) {
	spec := trace.WebServer.Scaled(scale)
	fps := trace.NewGenerator(spec).Drain()

	var points []BloomPoint
	for _, enabled := range []bool{true, false} {
		dev := device.New(device.SSD, device.Account)
		node, err := core.NewNode(core.NodeConfig{
			ID:            "bloom-ablation",
			Store:         hashdb.NewMemStore(dev),
			CacheSize:     1 << 12,
			DisableBloom:  !enabled,
			BloomExpected: len(fps) + 1,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i, fp := range fps {
			if _, err := node.LookupOrInsert(context.Background(), fp, core.Value(i+1)); err != nil {
				node.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		devStats := dev.Stats()
		node.Close()
		points = append(points, BloomPoint{Bloom: enabled, SSDReads: devStats.Reads, Elapsed: elapsed})
	}
	return points, nil
}

// FormatBloomAblation renders the comparison.
func FormatBloomAblation(points []BloomPoint) string {
	t := &table{header: []string{"bloom filter", "ssd reads", "elapsed"}}
	for _, p := range points {
		state := "off"
		if p.Bloom {
			state = "on"
		}
		t.addRow(state, fmt.Sprintf("%d", p.SSDReads), p.Elapsed.Round(time.Millisecond).String())
	}
	return "Ablation: Bloom filter (Web Server workload, 18% redundant)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Ablation: index backend designs (SHHC hybrid vs baselines).
// ---------------------------------------------------------------------------

// BackendPoint is one index design's cost on the same workload.
type BackendPoint struct {
	Kind       baseline.Kind
	Elapsed    time.Duration
	DeviceBusy time.Duration // modeled device time (the honest comparator)
	EnergyJ    float64       // modeled active device energy (future work §V)
}

// RunBackendComparison replays the Home Dir workload through each baseline
// node design. DeviceBusy is the modeled hardware cost: this is where the
// HDD index loses by orders of magnitude, reproducing the motivation for
// flash-based indexes (ChunkStash's 7x-60x claim, paper §I).
func RunBackendComparison(scale int) ([]BackendPoint, error) {
	spec := trace.HomeDir.Scaled(scale)
	fps := trace.NewGenerator(spec).Drain()

	kinds := []baseline.Kind{
		baseline.KindHybrid,
		baseline.KindChunkStash,
		baseline.KindDiskIndex,
		baseline.KindRAMOnly,
	}
	var points []BackendPoint
	for _, kind := range kinds {
		dev, node, err := newInstrumentedBaseline(kind, len(fps)+1)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i, fp := range fps {
			if _, err := node.LookupOrInsert(context.Background(), fp, core.Value(i+1)); err != nil {
				node.Close()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		busy := dev.Stats().Busy
		energy := device.EnergyFor(dev)
		node.Close()
		points = append(points, BackendPoint{Kind: kind, Elapsed: elapsed, DeviceBusy: busy, EnergyJ: energy})
	}
	return points, nil
}

// newInstrumentedBaseline builds a baseline node around a device we keep a
// handle to, so modeled busy time is observable.
func newInstrumentedBaseline(kind baseline.Kind, expected int) (*device.Device, core.Backend, error) {
	switch kind {
	case baseline.KindHybrid:
		dev := device.New(device.SSD, device.Account)
		node, err := core.NewNode(core.NodeConfig{
			ID:            "backend-hybrid",
			Store:         hashdb.NewMemStore(dev),
			CacheSize:     expected / 16,
			BloomExpected: expected,
		})
		return dev, node, err
	case baseline.KindChunkStash:
		dev := device.New(device.SSD, device.Account)
		stash := baseline.NewChunkStash(expected, dev)
		node, err := core.NewNode(core.NodeConfig{ID: "backend-stash", Store: stash, DisableBloom: true})
		return dev, node, err
	case baseline.KindDiskIndex:
		dev := device.New(device.HDD, device.Account)
		node, err := core.NewNode(core.NodeConfig{ID: "backend-disk", Store: hashdb.NewMemStore(dev), DisableBloom: true})
		return dev, node, err
	case baseline.KindRAMOnly:
		dev := device.New(device.RAM, device.Account)
		node, err := core.NewNode(core.NodeConfig{ID: "backend-ram", Store: hashdb.NewMemStore(dev), DisableBloom: true})
		return dev, node, err
	}
	return nil, nil, fmt.Errorf("bench: unknown baseline kind %v", kind)
}

// FormatBackendComparison renders the comparison.
func FormatBackendComparison(points []BackendPoint) string {
	t := &table{header: []string{"index design", "modeled device busy", "modeled energy (J)", "wall elapsed"}}
	for _, p := range points {
		t.addRow(
			p.Kind.String(),
			p.DeviceBusy.Round(time.Millisecond).String(),
			fmt.Sprintf("%.3f", p.EnergyJ),
			p.Elapsed.Round(time.Millisecond).String(),
		)
	}
	return "Ablation: index backend designs (Home Dir workload, single node)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Ablation: dedup completeness — SHHC's exact distributed index vs a
// Sparse-Indexing-style sampled index (related work, FAST'09).
// ---------------------------------------------------------------------------

// CompletenessPoint compares duplicate detection on one workload.
type CompletenessPoint struct {
	Workload    string
	ExactDups   int
	SparseDups  int
	SparseRAMB  int
	ExactRAMB   int // full in-RAM index equivalent footprint
	SparseShare float64
}

// RunCompleteness replays each paper workload through an exact index and a
// sparse sampled index, reporting how many duplicates each catches and the
// RAM each needs.
func RunCompleteness(scale int) ([]CompletenessPoint, error) {
	var points []CompletenessPoint
	for _, spec := range trace.PaperWorkloads() {
		scaled := spec.Scaled(scale)
		g := trace.NewGenerator(scaled)
		sparse := baseline.NewSparseIndex(baseline.SparseConfig{SampleShift: 6, MaxChampions: 4})
		exact := make(map[fingerprint.Fingerprint]struct{})

		const segSize = 1024
		seg := make([]fingerprint.Fingerprint, 0, segSize)
		exactDups, sparseDups, total := 0, 0, 0
		flush := func() {
			if len(seg) == 0 {
				return
			}
			res := sparse.DedupSegment(seg)
			for _, d := range res.Dup {
				if d {
					sparseDups++
				}
			}
			seg = seg[:0]
		}
		for {
			fp, ok := g.Next()
			if !ok {
				break
			}
			total++
			if _, dup := exact[fp]; dup {
				exactDups++
			}
			exact[fp] = struct{}{}
			seg = append(seg, fp)
			if len(seg) == segSize {
				flush()
			}
		}
		flush()

		p := CompletenessPoint{
			Workload:   scaled.Name,
			ExactDups:  exactDups,
			SparseDups: sparseDups,
			SparseRAMB: sparse.Stats().RAMBytes,
			ExactRAMB:  len(exact) * (fingerprint.Size + 8),
		}
		if exactDups > 0 {
			p.SparseShare = float64(sparseDups) / float64(exactDups)
		}
		points = append(points, p)
	}
	return points, nil
}

// FormatCompleteness renders the comparison.
func FormatCompleteness(points []CompletenessPoint) string {
	t := &table{header: []string{"workload", "exact dups", "sparse dups", "caught", "sparse RAM", "exact RAM"}}
	for _, p := range points {
		t.addRow(
			p.Workload,
			fmt.Sprintf("%d", p.ExactDups),
			fmt.Sprintf("%d", p.SparseDups),
			fmt.Sprintf("%.1f%%", p.SparseShare*100),
			fmt.Sprintf("%dKB", p.SparseRAMB/1024),
			fmt.Sprintf("%dKB", p.ExactRAMB/1024),
		)
	}
	return "Ablation: dedup completeness — exact (SHHC) vs sparse-indexing baseline\n" + t.String()
}

// ---------------------------------------------------------------------------
// Ablation: virtual node count vs ring balance (Figure 6 sensitivity).
// ---------------------------------------------------------------------------

// VNodePoint is one virtual-node setting's balance outcome.
type VNodePoint struct {
	VNodes      int
	MaxOverMin  float64 // key-space share spread
	EntrySpread float64 // actual stored-entry spread (max/min)
}

// RunVNodeSweep measures ring balance across virtual-node counts at N=4.
func RunVNodeSweep(fingerprints int, vnodeCounts []int) ([]VNodePoint, error) {
	if len(vnodeCounts) == 0 {
		vnodeCounts = []int{1, 4, 16, 64, 128, 512}
	}
	var points []VNodePoint
	for _, vn := range vnodeCounts {
		r := ring.New(vn)
		counts := map[ring.NodeID]int{}
		for i := 0; i < 4; i++ {
			id := ring.NodeID(fmt.Sprintf("node-%d", i))
			if err := r.Add(id); err != nil {
				return nil, err
			}
			counts[id] = 0
		}
		for i := 0; i < fingerprints; i++ {
			id, err := r.Lookup(fingerprint.FromUint64(uint64(i)))
			if err != nil {
				return nil, err
			}
			counts[id]++
		}
		minC, maxC := fingerprints, 0
		for _, c := range counts {
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		spread := 0.0
		if minC > 0 {
			spread = float64(maxC) / float64(minC)
		}
		points = append(points, VNodePoint{
			VNodes:      vn,
			MaxOverMin:  r.Balance().MaxOverMin,
			EntrySpread: spread,
		})
	}
	return points, nil
}

// FormatVNodeSweep renders the sweep.
func FormatVNodeSweep(points []VNodePoint) string {
	t := &table{header: []string{"vnodes/node", "keyspace max/min", "entries max/min"}}
	for _, p := range points {
		t.addRow(
			fmt.Sprintf("%d", p.VNodes),
			fmt.Sprintf("%.2f", p.MaxOverMin),
			fmt.Sprintf("%.2f", p.EntrySpread),
		)
	}
	return "Ablation: virtual nodes vs load balance (N=4)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Ablation: hot-path lock stripes (how lookup throughput scales with the
// node's stripe count under concurrent clients).
// ---------------------------------------------------------------------------

// StripePoint is one stripe count's concurrent-lookup throughput.
type StripePoint struct {
	Stripes    int
	Clients    int
	Throughput float64 // lookups per second
	Elapsed    time.Duration
}

// RunStripeSweep hammers a single node from `clients` goroutines with a
// cache-resident working set, once per stripe count. With one stripe every
// lookup serializes behind one lock (the seed design); with more, lookups
// of different fingerprints proceed in parallel. On a single-core machine
// the sweep is flat — the stripes remove lock contention, not CPU work —
// so read it on the hardware you care about.
func RunStripeSweep(clients, lookups int, stripeCounts []int) ([]StripePoint, error) {
	if clients <= 0 {
		clients = 2 * runtime.GOMAXPROCS(0)
	}
	if lookups <= 0 {
		lookups = 200000
	}
	if len(stripeCounts) == 0 {
		stripeCounts = []int{1, 4, 16, 64}
	}
	const working = 1 << 14

	var points []StripePoint
	for _, stripes := range stripeCounts {
		node, err := core.NewNode(core.NodeConfig{
			ID:            "stripe-sweep",
			Store:         hashdb.NewMemStore(nil),
			CacheSize:     working,
			BloomExpected: working * 2,
			Stripes:       stripes,
		})
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < working; i++ {
			if _, err := node.LookupOrInsert(context.Background(), fingerprint.FromUint64(i), core.Value(i)); err != nil {
				node.Close()
				return nil, err
			}
		}

		perClient := lookups / clients
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
		)
		start := time.Now()
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				i := uint64(g) * (working / uint64(clients))
				for k := 0; k < perClient; k++ {
					if _, err := node.LookupOrInsert(context.Background(), fingerprint.FromUint64(i%working), 0); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					i += 7
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		node.Close()
		if firstErr != nil {
			return nil, firstErr
		}
		total := perClient * clients
		points = append(points, StripePoint{
			Stripes:    stripes,
			Clients:    clients,
			Throughput: float64(total) / elapsed.Seconds(),
			Elapsed:    elapsed,
		})
	}
	return points, nil
}

// FormatStripeSweep renders the sweep.
func FormatStripeSweep(points []StripePoint) string {
	t := &table{header: []string{"stripes", "clients", "throughput(lookups/s)", "elapsed"}}
	for _, p := range points {
		t.addRow(
			fmt.Sprintf("%d", p.Stripes),
			fmt.Sprintf("%d", p.Clients),
			fmt.Sprintf("%.0f", p.Throughput),
			p.Elapsed.Round(time.Millisecond).String(),
		)
	}
	return "Ablation: hot-path lock stripes (single node, cache-resident set)\n" + t.String()
}
