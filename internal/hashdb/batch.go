package hashdb

// This file implements the batched read path and what both batched paths
// share. A batch groups its keys by bucket, in ascending order, and its
// buckets by stripe block: a unit is the runs of one block, at most 32
// chains, and one worker takes it under one hold of the stripe lock. The
// unit's chain heads, adjacent pages in the file, are read with one call per
// run of consecutive page numbers into one slab, each verified as a page
// read alone is; every page of a chain is then matched against all of the
// chain's keys at once by the chain-scan kernel. Paying a syscall per run of
// pages instead of per page is what the batch buys on a fast device, where
// the software's cost per I/O sets the throughput.

import (
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/parallel"
)

// keyed is one item of a batch: its input index under its group key (bucket
// number for the on-disk table, map shard for MemStore).
type keyed struct {
	key uint64
	idx int32
}

// groupScratch is the pooled working memory of one batch's grouping. After
// group, run r is items[starts[r]:starts[r+1]]: the items that share a key,
// in input order — which is what gives batched writes their in-order
// duplicate semantics — and the runs ascend by key. eachUnit cuts the runs
// into units (units) and the units into chunks (chunks).
type groupScratch struct {
	items, unsorted []keyed
	starts, count   []int32
	units, chunks   []int32
}

var groupScratchPool = sync.Pool{New: func() any { return new(groupScratch) }}

//shhc:returns-buf
func getGroupScratch() *groupScratch { return groupScratchPool.Get().(*groupScratch) }

//shhc:takes-buf sc
func putGroupScratch(sc *groupScratch) {
	if cap(sc.items) > 1<<16 { // one huge batch must not pin its megabytes
		*sc = groupScratch{}
	}
	groupScratchPool.Put(sc)
}

// group sorts the items idxs — every index below n when idxs is nil; a retry
// round regroups only what a concurrent bucket split displaced — into runs
// of equal key, in ascending key order. Every key must lie below bound. It is
// a counting sort on the top bits of the key into at least as many
// partitions as items, so a batch spread over the key space holds about one
// key a partition and a stable sort of the few that hold more finishes the
// job: linear unless the batch packs many keys into one partition of bound.
func (sc *groupScratch) group(n int, idxs []int32, bound uint64, keyOf func(int) uint64) {
	if idxs != nil {
		n = len(idxs)
	}
	shift := max(0, bits.Len64(bound-1)-bits.Len(uint(n)))
	parts := int((bound-1)>>shift) + 1
	sc.items = slices.Grow(sc.items[:0], n)[:n]
	sc.unsorted = slices.Grow(sc.unsorted[:0], n)[:n]
	sc.count = slices.Grow(sc.count[:0], parts+1)[:parts+1]
	count := sc.count // count[p+1] counts partition p, then count[p] is its cursor
	clear(count)
	for j := range sc.unsorted {
		i := j
		if idxs != nil {
			i = int(idxs[j])
		}
		k := keyOf(i)
		sc.unsorted[j] = keyed{k, int32(i)}
		count[k>>shift+1]++
	}
	for p := 1; p < len(count); p++ {
		count[p] += count[p-1]
	}
	for _, it := range sc.unsorted {
		p := it.key >> shift
		sc.items[count[p]] = it
		count[p]++
	}
	lo := int32(0)
	for _, hi := range count[:parts] { // each cursor has reached its partition's end
		if hi-lo > 1 {
			slices.SortStableFunc(sc.items[lo:hi], func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
		}
		lo = hi
	}
	sc.starts = sc.starts[:0]
	for j := range sc.items {
		if j == 0 || sc.items[j].key != sc.items[j-1].key {
			sc.starts = append(sc.starts, int32(j))
		}
	}
	sc.starts = append(sc.starts, int32(n))
}

// unit is the runs one worker takes under one lock hold: the runs of one
// stripe block (at most 1<<stripeShift chains). Run r is
// items[starts[r]:starts[r+1]].
type unit struct {
	items  []keyed
	starts []int32
}

func (u unit) runs() int { return len(u.starts) - 1 }

func (u unit) run(r int) []keyed { return u.items[u.starts[r]:u.starts[r+1]] }

// chainScratch is the pooled staging of the units one worker takes: the
// unit's chains (one a run that kept items) with the indices of their items
// that still map to their bucket, the chains' head pages in one slab, and the
// walk of the chain in hand — the index of its distinct fingerprints (a
// Bucket64's bits above shift pick its first slot; one is the slot of a run
// with a single distinct fingerprint, else -1), the matches scan found on the
// last page, its head (top, a page of the slab) and the overflow pages read
// or added below it (chain). It owns its buffers — they are not the page
// pool's — and keeps them from one unit to the next. untimed is what the
// unit spent outside chain I/O, which the lane's probe leaves out.
type chainScratch struct {
	live    []int32
	chains  []unitChain
	slab    []byte
	slots   []runSlot
	shift   uint
	one     int32
	hits    []hit
	top     chainPage
	chain   []chainPage
	untimed time.Duration
}

// unitChain is one chain of a unit: the page of its head, its items
// cs.live[lo:hi], and whether the walk changed its head.
type unitChain struct {
	head   uint64
	lo, hi int32
	dirty  bool
}

// runSlot is a slot of a run's open-addressed index (chainScratch.index): one
// distinct fingerprint of the run under its Bucket64 — the first of its
// items, and the last: a batched write creates the fingerprint from the
// first if the chain lacks it and ends with the last's value, so in-batch
// duplicates resolve in input order, as sequential Puts would.
type runSlot struct {
	hash        uint64
	first, last int32
	used, found bool
}

// hit is one page entry a run holds: the entry's slot on the page, and its
// fingerprint's slot in the run's index.
type hit struct{ entry, slot int32 }

// index builds the run's table of distinct fingerprints, so a chain walk
// costs one probe per page entry instead of one compare per item, and
// returns how many there are. It is keyed by Bucket64: every fingerprint of
// a chain shares the bits of Prefix64 that chose its bucket, and none of
// Bucket64's. The table is at most a quarter full.
func (cs *chainScratch) index(live []int32, fpOf func(int32) fingerprint.Fingerprint) (distinct int) {
	size := 4 << bits.Len(uint(len(live)))
	cs.shift = uint(64 - bits.TrailingZeros(uint(size)))
	cs.slots = slices.Grow(cs.slots[:0], size)[:size]
	clear(cs.slots)
	for _, idx := range live {
		fp := fpOf(idx)
		s := cs.find(fp, fpOf)
		if sl := &cs.slots[s]; sl.used {
			sl.last = idx
		} else {
			*sl = runSlot{hash: fp.Bucket64(), first: idx, last: idx, used: true}
			distinct++
			cs.one = s
		}
	}
	if distinct != 1 {
		cs.one = -1
	}
	return distinct
}

// find returns the index of fp's slot in the run's index, or of the empty
// slot it belongs in.
func (cs *chainScratch) find(fp fingerprint.Fingerprint, fpOf func(int32) fingerprint.Fingerprint) int32 {
	h, mask := fp.Bucket64(), uint64(len(cs.slots)-1)
	for s := h >> cs.shift; ; s = (s + 1) & mask {
		if sl := &cs.slots[s]; !sl.used || sl.hash == h && fpOf(sl.first) == fp {
			return int32(s)
		}
	}
}

// slot returns fp's slot in the run's index, or the empty slot it belongs in.
func (cs *chainScratch) slot(fp fingerprint.Fingerprint, fpOf func(int32) fingerprint.Fingerprint) *runSlot {
	return &cs.slots[cs.find(fp, fpOf)]
}

// scan is the chain-scan kernel of both batched walks: it matches the
// entries of one chain page, as read, against the run the index holds and
// returns the matches, stopping once want fingerprints are found. Each entry
// costs one load of its Bucket64 word: a run of one fingerprint compares it
// with the key's, a larger run probes the index. A fingerprint found on an
// earlier page is not looked for again.
func (cs *chainScratch) scan(page []byte, want int, fpOf func(int32) fingerprint.Fingerprint) []hit {
	cs.hits = cs.hits[:0]
	n := pageCount(page)
	if cs.one >= 0 {
		sl := &cs.slots[cs.one]
		if sl.found {
			return cs.hits
		}
		for j := 0; j < n; j++ {
			e := page[pageHdrSize+j*entrySize:][:entrySize]
			if binary.BigEndian.Uint64(e[8:]) == sl.hash && fingerprint.FromBytes(e) == fpOf(sl.first) {
				sl.found = true
				cs.hits = append(cs.hits, hit{int32(j), cs.one})
				break
			}
		}
		return cs.hits
	}
	slots, mask := cs.slots, uint64(len(cs.slots)-1)
	for j := 0; j < n && len(cs.hits) < want; j++ {
		e := page[pageHdrSize+j*entrySize:][:entrySize]
		h := binary.BigEndian.Uint64(e[8:]) // the entry's Bucket64
		for s := h >> cs.shift; ; s = (s + 1) & mask {
			sl := &slots[s]
			if !sl.used {
				break
			}
			if sl.hash == h && !sl.found && fingerprint.FromBytes(e) == fpOf(sl.first) {
				sl.found = true
				cs.hits = append(cs.hits, hit{int32(j), int32(s)})
				break
			}
		}
	}
	return cs.hits
}

var chainScratchPool = sync.Pool{New: func() any { return new(chainScratch) }}

//shhc:returns-buf
func getChainScratch() *chainScratch { return chainScratchPool.Get().(*chainScratch) }

//shhc:takes-buf sc
func putChainScratch(sc *chainScratch) {
	if cap(sc.chain) > 8 || cap(sc.slots) > 1<<12 || cap(sc.live) > 1<<12 { // one long chain or run must not pin its memory
		*sc = chainScratch{}
	}
	chainScratchPool.Put(sc)
}

// addPage extends the staged chain by one page: page number no, clean,
// contents left for the caller to read or clear.
func (sc *chainScratch) addPage(no uint64) *chainPage {
	sc.chain = slices.Grow(sc.chain, 1)[:len(sc.chain)+1]
	cp := &sc.chain[len(sc.chain)-1]
	if cp.buf == nil {
		cp.buf = make([]byte, PageSize)
	}
	cp.no, cp.dirty = no, false
	return cp
}

// head is chain c's head page in the slab.
func (sc *chainScratch) head(c int) []byte { return sc.slab[c*PageSize:][:PageSize] }

// maxChunkRuns caps a chunk: how long a worker holds its processor (100–200
// µs) and the spacing of the yields on parallel's background lane. A batch of
// up to 2 048 runs never reaches it; a destage wave's 13k did (≈ 200 a chunk
// before). 16 and 32 read the same plan_p95_ms (15.8, 15.9; parent 26.8), 32
// the better plan_p50_ms (+15 % against +19 %) and fps_per_s; 64 read a worse
// plan_p95_ms (17.3) and 8 a worse plan_p50_ms (+32 %) (first_full_wb, PR 21).
const maxChunkRuns = 32

// blockingChain is the wall time of one chain's I/O (page reads, scan, page
// writes; not the stripe lock's wait or the fsync of a dirty mark) above
// which its I/O must have blocked: eachUnit's probe read 1–7 µs over the page
// cache (10–27 µs under -race) and 42–166 µs over O_DIRECT on a virtio ext4
// disk, where one worker takes 922 ms for 8 192 chains and IODepth workers
// 510 (BenchmarkWavePutBatch, PR 21). A device whose direct chain is faster
// than this was not at hand; it would keep one worker.
const blockingChain = 30 * time.Microsecond

// eachUnit calls fn for every unit of the grouping — the runs whose keys
// agree above the low shift bits — up to parallel.IODepth units at a time, so
// page I/O that blocks overlaps up to a device's queue depth. A worker takes
// whole units, about maxChunkRuns runs of them a pull once there are many,
// and makes all of them with one scratch: a batch of a thousand one-key
// chains is not a thousand trips to a mutex and a pool. The first chunk times its units and, if even the fastest chain blocked (a
// preempted unit is not the fastest), says so: parallel.Widen.
func (sc *groupScratch) eachUnit(ctx context.Context, shift uint, fn func(cs *chainScratch, u unit) error) error {
	runs := len(sc.starts) - 1
	sc.units = sc.units[:0]
	for r := 0; r < runs; r++ {
		if r == 0 || sc.items[sc.starts[r]].key>>shift != sc.items[sc.starts[r-1]].key>>shift {
			sc.units = append(sc.units, int32(r))
		}
	}
	sc.units = append(sc.units, int32(runs))
	per := int32(min(maxChunkRuns, (runs+4*parallel.IODepth-1)/(4*parallel.IODepth)))
	sc.chunks = sc.chunks[:0]
	for u := 0; u+1 < len(sc.units); u++ {
		if u == 0 || sc.units[u+1]-sc.units[sc.chunks[len(sc.chunks)-1]] > per {
			sc.chunks = append(sc.chunks, int32(u))
		}
	}
	sc.chunks = append(sc.chunks, int32(len(sc.units)-1))
	return parallel.Do(ctx, len(sc.chunks)-1, parallel.IODepth, func(c int) error {
		cs := getChainScratch()
		defer putChainScratch(cs)
		fastest := time.Duration(math.MaxInt64)
		for u := sc.chunks[c]; u < sc.chunks[c+1]; u++ {
			lo, hi := sc.units[u], sc.units[u+1]
			start := time.Time{}
			if c == 0 {
				start, cs.untimed = time.Now(), 0
			}
			if err := fn(cs, unit{items: sc.items, starts: sc.starts[lo : hi+1]}); err != nil {
				return err
			}
			if c == 0 {
				fastest = min(fastest, (time.Since(start)-cs.untimed)/time.Duration(hi-lo))
			}
		}
		if c == 0 && fastest > blockingChain {
			parallel.Widen(ctx)
		}
		return nil
	})
}

// staleList collects, from concurrent chain walks, the items a concurrent
// linear-hashing split remapped between the lock-free grouping and the
// stripe lock. The batch regroups and retries them; splits are rare and
// move one bucket at a time, so the retry set collapses immediately.
type staleList struct {
	mu   sync.Mutex
	idxs []int32
}

func (s *staleList) add(idx int32) {
	s.mu.Lock()
	s.idxs = append(s.idxs, idx)
	s.mu.Unlock()
}

// take hands the collected items to the caller and starts a new list.
func (s *staleList) take() (idxs []int32) {
	idxs, s.idxs = s.idxs, nil
	return idxs
}

// stageUnit is the first half of a unit's walk, under its stripe lock: every
// run is filtered down to the items that map to its bucket now that the
// stripe is locked — the mapping is stable under the lock, so the filter is
// authoritative — the others are reported stale, and the head pages of the
// chains that keep items are read into the slab, one file call per run of
// consecutive page numbers. Cancelling ctx stops it before a read call;
// nothing has changed by then.
func (db *DB) stageUnit(ctx context.Context, cs *chainScratch, u unit, fpOf func(int32) fingerprint.Fingerprint, stale *staleList) error {
	cs.live, cs.chains = cs.live[:0], cs.chains[:0]
	for r := 0; r < u.runs(); r++ {
		run := u.run(r)
		bucket, lo := run[0].key, len(cs.live)
		for _, it := range run {
			if db.bucketOf(fpOf(it.idx)) == bucket {
				cs.live = append(cs.live, it.idx)
			} else {
				stale.add(it.idx)
			}
		}
		if len(cs.live) > lo {
			cs.chains = append(cs.chains, unitChain{head: db.bucketPageOf(bucket), lo: int32(lo), hi: int32(len(cs.live))})
		}
	}
	n := len(cs.chains)
	if cap(cs.slab) < n*PageSize {
		// A power of two pages: a slab sized to each unit's chain count left
		// garbage behind every time a unit outgrew it by a page, and
		// incr_hot's mem_peak_mb read +2.8 %; a whole unit's for every
		// scratch read chatty's +3.3 %.
		cs.slab = make([]byte, PageSize<<bits.Len(uint(n-1)))
	}
	cs.slab = cs.slab[:n*PageSize]
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && cs.chains[hi].head == cs.chains[hi-1].head+1 {
			hi++
		}
		if err := db.readPages(ctx, cs.chains[lo].head, cs.slab[lo*PageSize:hi*PageSize]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// GetBatch looks up every fingerprint, reading each distinct bucket page
// once. Probes are grouped by bucket and the buckets by stripe block; each
// unit reads its chains' head pages under the stripe's read lock, adjacent
// pages with one file call, and scans each page once for all of its chain's
// fingerprints. Results are positionally aligned with fps; duplicate
// fingerprints in the input each get the same answer at the cost of no
// extra I/O. Cancelling ctx stops new page reads between pages.
func (db *DB) GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]Value, []bool, error) {
	vals := make([]Value, len(fps))
	found := make([]bool, len(fps))
	if len(fps) == 0 {
		return vals, found, nil
	}
	g := getGroupScratch()
	defer putGroupScratch(g)
	var (
		stale   staleList
		pending []int32 // nil: everything
	)
	for {
		m := db.mapping()
		g.group(len(fps), pending, m.bound(), func(i int) uint64 { return m.bucket(fps[i].Prefix64()) })
		err := g.eachUnit(ctx, stripeShift, func(cs *chainScratch, u unit) error {
			return db.getUnit(ctx, cs, u, fps, vals, found, &stale)
		})
		if err != nil {
			return nil, nil, err
		}
		if pending = stale.take(); pending == nil {
			return vals, found, nil
		}
		db.staleRetries.Add(1)
	}
}

// getUnit resolves every probe of one unit under its stripe's read lock:
// each chain's head is scanned in the slab for all of the chain's
// fingerprints, and the walk goes on into overflow pages, each read once,
// only while some are still missing.
func (db *DB) getUnit(ctx context.Context, cs *chainScratch, u unit, fps []fingerprint.Fingerprint, vals []Value, found []bool, stale *staleList) error {
	st := db.stripeOf(u.items[u.starts[0]].key)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	fpOf := func(i int32) fingerprint.Fingerprint { return fps[i] }
	if err := db.stageUnit(ctx, cs, u, fpOf, stale); err != nil {
		return err
	}
	cs.chain = cs.chain[:0]
	var overflow []byte
	for c := range cs.chains {
		ch := &cs.chains[c]
		live := cs.live[ch.lo:ch.hi]
		distinct := cs.index(live, fpOf)
		page := cs.head(c)
		for remaining := distinct; ; {
			hits := cs.scan(page, remaining, fpOf)
			for _, h := range hits {
				idx := cs.slots[h.slot].first
				vals[idx], found[idx] = entryVal(page, int(h.entry)), true
			}
			remaining -= len(hits)
			p := pageNext(page)
			if p == 0 || remaining == 0 {
				break
			}
			if overflow == nil {
				overflow = cs.addPage(0).buf
			}
			if err := db.readPages(ctx, p, overflow); err != nil {
				return err
			}
			page = overflow
		}
		if distinct < len(live) { // duplicates take their first's answer
			for _, idx := range live {
				if first := cs.slot(fps[idx], fpOf).first; first != idx {
					vals[idx], found[idx] = vals[first], found[first]
				}
			}
		}
	}
	return nil
}
