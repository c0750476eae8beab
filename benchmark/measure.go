package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"shhc/internal/core"
)

// options are the knobs of one run that are not part of a workload.
type options struct {
	seed    int64
	seconds float64
	rounds  int
	// scale divides every plan count and the stack's cache and table
	// sizes, so working sets keep their ratio to the LRU; 1 is the
	// benchmark, the smoke test runs smaller.
	scale   int
	dataDir string
	outDir  string
	stack   stackConfig
	// verbose prints each round's end-to-end numbers to standard error.
	verbose bool
}

// windowCounters are counter deltas over the measured window only — the
// preload a workload does during set-up is not in them — summed over
// nodes. The shape guards and the counter-derived layer metrics read them.
type windowCounters struct {
	plans, fps                                           uint64
	lookups, cacheHits, bloomShort, bloomFalse           uint64
	storeHits, storeMisses, coalesced                    uint64
	destageWaves, destageEntries, destagePages           uint64
	destageBufferHits                                    uint64
	pageReads, pageWrites                                uint64
	batcherQueries, batcherBatches                       uint64
	creditStalls, redirects, windowUpdates, hashdbSplits uint64
	file                                                 fileCounters
	fileBusyByNode                                       map[string]int64
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ratio(a, b uint64) float64 { return div(float64(a), float64(b)) }

func (c windowCounters) cacheHitRatio() float64   { return ratio(c.cacheHits, c.lookups) }
func (c windowCounters) bloomShortRatio() float64 { return ratio(c.bloomShort, c.lookups) }
func (c windowCounters) storeHitRatio() float64   { return ratio(c.storeHits, c.lookups) }

// snapshot is every lifetime counter the stack exposes, read at one
// instant; two of them make a windowCounters.
type snapshot struct {
	nodes   []core.NodeStats
	reads   int64
	writes  int64
	queries uint64
	batches uint64
	stalls  uint64
	redir   uint64
	splits  uint64
	files   []fileCounters
}

func takeSnapshot(ctx context.Context, st *stack) (snapshot, error) {
	var s snapshot
	var err error
	if s.nodes, err = st.nodeStats(ctx); err != nil {
		return s, err
	}
	for _, np := range st.nodes {
		ds := np.db.Stats()
		s.reads += ds.Device.Reads
		s.writes += ds.Device.Writes
		s.splits += ds.Splits
		s.stalls += np.client.CreditStalls()
		s.redir += np.client.RedirectsFollowed()
		if np.file != nil {
			s.files = append(s.files, np.file.snapshot())
		}
	}
	agg := st.front.AggregationStats()
	s.queries, s.batches = agg.Queries, agg.Batches
	return s, nil
}

func (a snapshot) since(b snapshot, st *stack) windowCounters {
	c := windowCounters{
		pageReads: uint64(a.reads - b.reads), pageWrites: uint64(a.writes - b.writes),
		batcherQueries: a.queries - b.queries, batcherBatches: a.batches - b.batches,
		creditStalls: a.stalls - b.stalls, redirects: a.redir - b.redir, hashdbSplits: a.splits - b.splits,
		fileBusyByNode: map[string]int64{},
	}
	for i := range a.nodes {
		x, y := a.nodes[i], b.nodes[i]
		c.lookups += x.Lookups - y.Lookups
		c.cacheHits += x.CacheHits - y.CacheHits
		c.bloomShort += x.BloomShort - y.BloomShort
		c.bloomFalse += x.BloomFalse - y.BloomFalse
		c.storeHits += x.StoreHits - y.StoreHits
		c.storeMisses += x.StoreMisses - y.StoreMisses
		c.coalesced += x.Coalesced - y.Coalesced
		c.destageWaves += x.Destage.Waves - y.Destage.Waves
		c.destageEntries += x.Destage.Entries - y.Destage.Entries
		c.destagePages += x.Destage.Pages - y.Destage.Pages
		c.destageBufferHits += x.Destage.BufferHits - y.Destage.BufferHits
		c.windowUpdates += x.Transport.WindowUpdates - y.Transport.WindowUpdates
	}
	for i := range a.files {
		d := a.files[i].sub(b.files[i])
		c.file = c.file.add(d)
		c.fileBusyByNode[string(st.nodes[i].id)] = d[fcBusyNs]
	}
	return c
}

// procSample is the process-wide cost read at a window edge.
type procSample struct {
	mallocs uint64
	pauseNs uint64
	gcCPU   float64
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUMetric)
	p := procSample{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
	if gcCPUMetric[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = gcCPUMetric[0].Value.Float64()
	}
	return p
}

// cpuNs is the process's user+sys CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rssBytes reads the resident set size from /proc/self/statm.
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// sampler tracks peak RSS and peak goroutine count during a window.
type sampler struct {
	stop       chan struct{}
	done       sync.WaitGroup
	peakRSS    int64
	peakGorout int
}

func startSampler(every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			s.peakRSS = max(s.peakRSS, rssBytes())
			s.peakGorout = max(s.peakGorout, runtime.NumGoroutine())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}

// roundResult is one set-up + window + check cycle on a fresh stack.
type roundResult struct {
	e2e        map[string]float64
	layer      map[string]float64
	attempted  int
	failed     int
	violations []string
	budget     *budget
	// raw are the timings before the host-noise correction.
	raw  map[string]float64
	host hostNoise
}

// fail counts one violation — a failed plan, an oracle mismatch, a shape
// guard — toward fail_ratio and keeps the first few messages.
func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// window is what one measured window observed, before any metric is made
// of it.
type window struct {
	counters windowCounters
	// lat and late are the latency and the send lateness, in ms and sorted,
	// of the correctly answered plans; okFPs is their fingerprints; wallS
	// runs from the first send to the last response.
	lat, late []float64
	okFPs     int
	wallS     float64
	// from and to are the window's edges; host is what the machine did
	// between them.
	from, to     hostEdge
	host         hostNoise
	proc0, proc1 procSample
	smp          *sampler
	// nodes are the node counters at the window's end.
	nodes []core.NodeStats
}

// rig is one fresh stack with its load generator and its round's
// requests, set up and timed: stack start, connections, request
// generation and preload, everything before the first measured request.
type rig struct {
	dir   string
	st    *stack
	lg    *loadgen
	tr    *tracer
	reqs  *requests
	probe *hostProbe
	// from and to are the edges of the set-up.
	from, to hostEdge
}

func setUp(o options, w *workload, round int, traced bool) (r *rig, err error) {
	r = &rig{probe: startHostProbe(), from: readHostEdge()}
	defer func() {
		if err != nil {
			r.tearDown()
		}
	}()
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return r, err
	}
	if r.dir, err = os.MkdirTemp(o.dataDir, w.name+"-"); err != nil {
		return r, err
	}
	if traced {
		r.tr = &tracer{}
	}
	if r.st, err = buildStack(o.stack.scaled(o.scale), r.dir, w.writeBack, r.tr); err != nil {
		return r, err
	}
	r.lg = newLoadgen(r.st.url, o.stack.Clients)
	for _, c := range r.lg.clients {
		// Open each keep-alive connection before the window.
		resp, err := c.Get(r.st.url + "/v1/stats")
		if err != nil {
			return r, err
		}
		resp.Body.Close()
	}
	r.reqs = generate(w, o.seed, round, o.seconds/float64(o.rounds), o.scale)
	if r.reqs.preload > 0 {
		got := 0
		for _, s := range r.lg.closedLoop(r.reqs, w.planSize, r.reqs.preload, true) {
			if s.err != nil {
				return r, fmt.Errorf("preload: %w", s.err)
			}
			got += s.missing
		}
		if got != r.reqs.distinct {
			return r, fmt.Errorf("preload: %d fingerprints reported new, generator made %d", got, r.reqs.distinct)
		}
	}
	r.to = readHostEdge()
	return r, nil
}

// tearDown stops everything setUp started and removes the round's files.
func (r *rig) tearDown() {
	r.probe.finish()
	if r.lg != nil {
		r.lg.close()
	}
	if r.st != nil {
		r.st.close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
	// Each round starts from the same heap, so mem_peak_mb is a round's
	// own peak and not what earlier rounds left behind.
	debug.FreeOSMemory()
}

// setupSeconds is the set-up's duration as the clock read it and corrected
// for host noise. The probe must have finished.
func (r *rig) setupSeconds() (raw, corrected float64) {
	raw = float64(r.to.at-r.from.at) / 1e9
	return raw, r.probe.noise(r.from, r.to).wall(raw)
}

// runRound sets a fresh stack up, measures one window on it and checks the
// answers.
func runRound(o options, w *workload, round int, traced bool) (*roundResult, error) {
	ctx := context.Background()
	res := &roundResult{e2e: map[string]float64{}}
	rg, err := setUp(o, w, round, traced)
	if err != nil {
		return nil, err
	}
	defer rg.tearDown()
	st, lg, reqs, probe, tr := rg.st, rg.lg, rg.reqs, rg.probe, rg.tr

	// The window.
	before, err := takeSnapshot(ctx, st)
	if err != nil {
		return nil, err
	}
	win := &window{smp: startSampler(20 * time.Millisecond), proc0: readProc(), from: readHostEdge()}
	var samples []sample
	if w.openLoop {
		samples = lg.openLoop(reqs, w.planSize, reqs.window, w.plansPerSecond)
	} else {
		samples = lg.closedLoop(reqs, w.planSize, reqs.window, false)
	}
	win.to, win.proc1 = readHostEdge(), readProc()
	win.smp.finish()
	probe.finish()
	win.host = probe.noise(win.from, win.to)
	after, err := takeSnapshot(ctx, st)
	if err != nil {
		return nil, err
	}
	win.nodes, win.counters = after.nodes, after.since(before, st)
	win.counters.plans, win.counters.fps = uint64(len(samples)), uint64(len(samples)*w.planSize)

	// The answers. A plan fails when it errored or, on a replay workload,
	// called anything new; Σ missing must equal the generator's count of
	// first occurrences exactly, whichever of two racing plans got each.
	missing := 0
	first, last := int64(math.MaxInt64), int64(0)
	res.attempted = len(samples)
	for _, s := range samples {
		first, last = min(first, s.sent), max(last, s.end)
		switch {
		case s.err != nil:
			res.fail("%v", s.err)
		case reqs.preload > 0 && s.missing != 0:
			res.fail("plan %d: %d fingerprints reported new on a replay", s.seq, s.missing)
		default:
			missing += s.missing
			win.okFPs += w.planSize
			win.lat = append(win.lat, float64(s.end-s.start)/1e6)
			win.late = append(win.late, float64(s.sent-s.start)/1e6)
		}
	}
	sort.Float64s(win.lat)
	sort.Float64s(win.late)
	win.wallS = float64(last-first) / 1e9
	if res.failed == 0 && missing != reqs.windowNew {
		res.fail("Σ missing = %d, generator made %d first occurrences", missing, reqs.windowNew)
	}
	for _, v := range w.guard(win.counters) {
		res.fail("%s", v)
	}

	// The one Flush of the run, then the end state: every hundredth
	// fingerprint sent must be there, and nothing else.
	if err := st.flush(); err != nil {
		return nil, err
	}
	for b, fps := range reqs.fps {
		for i := b % 100; i < len(fps); i += 100 {
			r, err := st.cluster.Lookup(ctx, fps[i])
			if err != nil {
				return nil, err
			}
			if !r.Exists {
				res.fail("fingerprint %s of plan body %d is not stored after Flush", fps[i].Short(), b)
			}
		}
	}
	stored := 0
	for _, np := range st.nodes {
		stored += np.db.Len()
	}
	if stored != reqs.distinct {
		res.fail("stores hold %d entries, generator made %d distinct fingerprints", stored, reqs.distinct)
	}
	bytes, err := st.storageBytes()
	if err != nil {
		return nil, err
	}
	shape := shapeOf(st)
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	// Timings are corrected for what the host did to the window (host.go);
	// raw holds them as the clock read them.
	res.host = win.host
	rawSetup, setup := rg.setupSeconds()
	res.raw = map[string]float64{
		"setup_s":       rawSetup,
		"fps_per_s":     float64(win.okFPs) / win.wallS,
		"plan_p50_ms":   percentile(win.lat, 0.50),
		"plan_p95_ms":   percentile(win.lat, 0.95),
		"cpu_us_per_fp": float64(win.to.cpu-win.from.cpu) / 1e3 / float64(win.counters.fps),
	}
	res.e2e["setup_s"] = setup
	res.e2e["fps_per_s"] = float64(win.okFPs) / win.host.wall(win.wallS)
	res.e2e["plan_p50_ms"] = win.host.wall(res.raw["plan_p50_ms"])
	res.e2e["plan_p95_ms"] = win.host.wall(res.raw["plan_p95_ms"])
	res.e2e["cpu_us_per_fp"] = win.host.cpu(res.raw["cpu_us_per_fp"])
	res.e2e["mem_peak_mb"] = float64(win.smp.peakRSS) / (1 << 20)
	res.e2e["storage_bytes_per_fp"] = float64(bytes) / float64(reqs.distinct)

	if traced {
		spans := tr.collect(win.from.at, win.to.at)
		res.budget = analyze(spans, samples, reqs, w, win.counters)
		res.layer = layerMetrics(res, win, shape)
		if o.outDir != "" {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return nil, err
			}
			all := append(res.budget.loadgenSpans, spans...)
			if err := writeSpans(filepath.Join(o.outDir, w.name+".spans.jsonl"), all); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// tableShape is hashdb's physical shape at the end of a round.
type tableShape struct {
	overflow, maxChain uint64
	loadFactor         float64
}

func shapeOf(st *stack) tableShape {
	var sh tableShape
	for _, np := range st.nodes {
		ds := np.db.Stats()
		sh.overflow += ds.OverflowPages
		sh.maxChain = max(sh.maxChain, ds.MaxChain)
		sh.loadFactor += ds.LoadFactor / float64(len(st.nodes))
	}
	return sh
}

// layerMetrics assembles the per-layer metrics of one traced round from
// the window's counter deltas and the span analysis.
func layerMetrics(res *roundResult, win *window, sh tableShape) map[string]float64 {
	b, wc := res.budget, win.counters
	m := map[string]float64{}
	windowNs := float64(win.to.at - win.from.at)

	m["loadgen.plan_p99_ms"] = percentile(win.lat, 0.99)
	m["loadgen.plan_max_ms"] = percentile(win.lat, 1)
	m["loadgen.late_ms_p95"] = percentile(win.late, 0.95)
	m["loadgen.achieved_plans_per_s"] = float64(len(win.lat)) / win.wallS
	m["loadgen.fail_ratio"] = div(float64(res.failed), float64(res.attempted))

	m["batcher.queries"] = float64(wc.batcherQueries)
	m["batcher.batches"] = float64(wc.batcherBatches)
	m["batcher.mean_batch"] = ratio(wc.batcherQueries, wc.batcherBatches)

	m["rpc.credit_stalls"] = float64(wc.creditStalls)
	m["rpc.redirects"] = float64(wc.redirects)
	m["rpc.window_updates"] = float64(wc.windowUpdates)

	m["node.cache_hit_ratio"] = wc.cacheHitRatio()
	m["node.bloom_short_ratio"] = wc.bloomShortRatio()
	m["node.bloom_false_ratio"] = ratio(wc.bloomFalse, wc.lookups)
	m["node.store_hit_ratio"] = wc.storeHitRatio()
	m["node.coalesced"] = float64(wc.coalesced)
	// The node's own phase histograms cover its lifetime, preload included;
	// they cannot be cut to the window from outside. The slower node's.
	for _, ns := range win.nodes {
		for name, d := range map[string]time.Duration{
			"node.phase_cache_p50_us": ns.Phases.Cache.P50, "node.phase_bloom_p50_us": ns.Phases.Bloom.P50,
			"node.phase_ssd_p50_us": ns.Phases.SSD.P50, "node.phase_ssd_p99_us": ns.Phases.SSD.P99,
		} {
			m[name] = max(m[name], float64(d)/1e3)
		}
	}
	m["node.destage_waves"] = float64(wc.destageWaves)
	m["node.destage_entries_per_wave"] = ratio(wc.destageEntries, wc.destageWaves)
	m["node.destage_entries_per_page"] = ratio(wc.destageEntries, wc.destagePages)
	m["node.destage_buffer_hits"] = float64(wc.destageBufferHits)

	f := func(i int) float64 { return float64(wc.file[i]) }
	m["hashdb.pages_read_per_lookup"] = div(f(fcReadsUnderGet), float64(b.getKeys))
	m["hashdb.pages_read_per_insert"] = div(f(fcReadsUnderPut), float64(b.putKeys))
	m["hashdb.pages_written_per_insert"] = div(f(fcWrites), float64(b.putKeys))
	m["hashdb.splits"] = float64(wc.hashdbSplits)
	m["hashdb.overflow_pages"] = float64(sh.overflow)
	m["hashdb.max_chain"] = float64(sh.maxChain)
	m["hashdb.load_factor"] = sh.loadFactor

	m["file.reads"] = f(fcReads)
	m["file.writes"] = f(fcWrites)
	m["file.syncs"] = f(fcSyncs)
	m["file.read_us_mean"] = div(f(fcReadNs)/1e3, f(fcReads))
	m["file.write_us_mean"] = div(f(fcWriteNs)/1e3, f(fcWrites))
	m["file.sync_ms_mean"] = div(f(fcSyncNs)/1e6, f(fcSyncs))
	m["file.busy_share"] = f(fcBusyNs) / (windowNs * float64(len(win.nodes)))
	m["file.bytes_written_per_new_fp"] = div(f(fcBytesWritten), float64(b.newFPs))

	m["proc.allocs_per_fp"] = float64(win.proc1.mallocs-win.proc0.mallocs) / float64(wc.fps)
	m["proc.gc_pause_ms_total"] = float64(win.proc1.pauseNs-win.proc0.pauseNs) / 1e6
	m["proc.gc_cpu_share"] = div(win.proc1.gcCPU-win.proc0.gcCPU, float64(win.to.cpu-win.from.cpu)/1e9)
	m["proc.goroutines_peak"] = float64(win.smp.peakGorout)
	m["host.cpu_slowdown"] = win.host.slowdown
	m["host.steal_share"] = win.host.stealShare

	for k, v := range b.metrics {
		m[k] = v
	}
	return m
}

// result is one run of one workload in one mode: what the driver's JSON
// line and the result files are made from.
type result struct {
	metrics    map[string]float64
	attempted  int
	failed     int
	violations []string
	budget     *budget
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// runWorkload measures one workload. Untraced, every round runs on the
// undecorated stack and each end-to-end metric is the median of the
// rounds. Traced, the first round stays undecorated as the reference for
// trace.overhead_pct and the rest carry the decorators; each per-layer
// metric is the median of the traced rounds.
func runWorkload(o options, w *workload, traced bool) (*result, error) {
	out := &result{metrics: map[string]float64{}}
	perRound := map[string][]float64{}
	var refFPS float64
	for round := 0; round < o.rounds; round++ {
		decorate := traced && round > 0
		r, err := runRound(o, w, round, decorate)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, round, err)
		}
		if o.verbose {
			fmt.Fprintf(os.Stderr, "  round %d traced=%v host=%+v\n    corrected %v\n    raw       %v\n", round, decorate, r.host, r.e2e, r.raw)
		}
		out.attempted += r.attempted
		out.failed += r.failed
		out.violations = append(out.violations, r.violations...)
		switch {
		case !traced:
			for k, v := range r.e2e {
				perRound[k] = append(perRound[k], v)
			}
		case !decorate:
			refFPS = r.e2e["fps_per_s"]
		default:
			r.layer["trace.overhead_pct"] = (1 - r.e2e["fps_per_s"]/refFPS) * 100
			for k, v := range r.layer {
				perRound[k] = append(perRound[k], v)
			}
			out.budget = r.budget
		}
	}
	if !traced {
		more, err := extraSetups(o, w, perRound["setup_s"])
		if err != nil {
			return nil, err
		}
		perRound["setup_s"] = more
	}
	for k, v := range perRound {
		out.metrics[k] = median(v)
	}
	return out, nil
}

// A set-up that takes tens of milliseconds — a stack start and a few
// thousand fingerprints — is a handful of file creations and fsyncs, and
// three samples of it swing with every hiccup of the disk. extraSetups
// times more of them, set up and torn down with no window between, until
// there are setupSamples or they have cost setupBudget.
const (
	setupSamples = 9
	setupBudget  = 1500 * time.Millisecond
)

func extraSetups(o options, w *workload, have []float64) ([]float64, error) {
	start := time.Now()
	for round := o.rounds; len(have) < setupSamples; round++ {
		if spent := time.Since(start); spent+time.Duration(median(have)*float64(time.Second)) > setupBudget {
			break
		}
		rg, err := setUp(o, w, round, false)
		if err != nil {
			return nil, fmt.Errorf("%s set-up %d: %w", w.name, round, err)
		}
		rg.tearDown()
		_, s := rg.setupSeconds()
		have = append(have, s)
	}
	return have, nil
}
