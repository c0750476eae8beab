package hashdb

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
// page for the on-disk table, map shard for MemStore), scrambled by spread.
type keyed struct {
	key uint64
	idx int32
}

// spread is the odd multiplier (2^64/φ) that scrambles group keys. It is a
// bijection on uint64, so equal products mean equal keys, and its top bits
// depend on every bit of the key — which makes them a partition number, and
// makes the order groups come out in unrelated to bucket order: walking the
// file in bucket order measured 3 µs per fingerprint slower than a
// scattered walk (PR 12).
const spread = 0x9E3779B97F4A7C15

// groupScratch is the pooled working memory of one batch's grouping. After
// group, run r is items[starts[r]:starts[r+1]]: the items that share a key,
// in input order — which is what gives batched writes their in-order
// duplicate semantics.
type groupScratch struct {
	items, unsorted []keyed
	starts, count   []int32
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
// of equal key. It is a counting sort on the top bits of the scrambled key
// into more partitions than items, so nearly every partition holds one key
// and a stable sort of the few that hold more finishes the job: linear
// whether the batch spreads over as many keys as it has items or lands on one.
func (sc *groupScratch) group(n int, idxs []int32, keyOf func(int) uint64) {
	if idxs != nil {
		n = len(idxs)
	}
	shift := 64 - bits.Len(uint(n))
	parts := 1 << (64 - shift)
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
		k := keyOf(i) * spread
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

// chainScratch is the pooled staging of the chain walks one worker makes:
// the indices of a run that still map to its bucket, the index of the run's
// distinct fingerprints (a Bucket64's bits above shift pick its first slot;
// one is the slot of a run with a single distinct fingerprint, else -1),
// the matches scan found on the last page, and the chain's pages. It owns
// its page buffers — they are not the page pool's — and keeps them from one
// walk to the next.
type chainScratch struct {
	live  []int32
	slots []runSlot
	shift uint
	one   int32
	hits  []hit
	chain []chainPage
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
	if cap(sc.chain) > 8 || cap(sc.slots) > 1<<12 { // one long chain or run must not pin its memory
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

// maxChunkRuns caps a chunk: how long a worker holds its processor (100–200
// µs) and the spacing of the yields on parallel's background lane. A batch of
// up to 2 048 runs never reaches it; a destage wave's 13k did (≈ 200 a chunk
// before). 16 and 32 read the same plan_p95_ms (15.8, 15.9; parent 26.8), 32
// the better plan_p50_ms (+15 % against +19 %) and fps_per_s; 64 read a worse
// plan_p95_ms (17.3) and 8 a worse plan_p50_ms (+32 %) (first_full_wb, PR 21).
const maxChunkRuns = 32

// blockingChain is the wall time of one chain (stripe lock, page read, page
// write) above which its I/O must have blocked: eachRun's probe read 1–7 µs
// over the page cache (10–27 µs under -race) and 42–166 µs over O_DIRECT on
// a virtio ext4 disk, where one worker takes 922 ms for 8 192 chains and
// IODepth workers 510 (BenchmarkWavePutBatch, PR 21). A device whose direct
// chain is faster than this was not at hand; it would keep one worker.
const blockingChain = 30 * time.Microsecond

// eachRun calls fn for every run of the grouping, up to parallel.IODepth
// runs at a time, so modeled (Sleep-mode) devices overlap page I/O the way
// real flash channels do. A worker takes several consecutive runs per pull
// once there are many, and makes all of them with one scratch: a batch of a
// thousand one-key chains is not a thousand trips to a mutex and a pool.
// The first chunk times its runs and, if even the fastest blocked (a
// preempted run is not the fastest), says so: parallel.Widen.
func (sc *groupScratch) eachRun(ctx context.Context, fn func(cs *chainScratch, run []keyed) error) error {
	runs := len(sc.starts) - 1
	per := min(maxChunkRuns, (runs+4*parallel.IODepth-1)/(4*parallel.IODepth))
	return parallel.Do(ctx, (runs+per-1)/per, parallel.IODepth, func(c int) error {
		cs := getChainScratch()
		defer putChainScratch(cs)
		fastest, start := time.Duration(math.MaxInt64), time.Time{}
		for r := c * per; r < min((c+1)*per, runs); r++ {
			if c == 0 {
				start = time.Now()
			}
			if err := fn(cs, sc.items[sc.starts[r]:sc.starts[r+1]]); err != nil {
				return err
			}
			if c == 0 {
				fastest = min(fastest, time.Since(start))
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

// live filters run down to the items that map to bucket now that its stripe
// is locked — the mapping is stable under the lock, so the filter is
// authoritative — and reports the others stale.
func (db *DB) live(cs *chainScratch, bucket uint64, run []keyed, fpOf func(int32) fingerprint.Fingerprint, stale *staleList) []int32 {
	cs.live = cs.live[:0]
	for _, it := range run {
		if db.bucketOf(fpOf(it.idx)) == bucket {
			cs.live = append(cs.live, it.idx)
		} else {
			stale.add(it.idx)
		}
	}
	return cs.live
}

// GetBatch looks up every fingerprint, reading each distinct bucket page
// once. Probes are grouped by bucket page; each group walks its bucket
// chain under the owning stripe's read lock, scanning one page buffer for
// all of the group's fingerprints. Results are positionally aligned with
// fps; duplicate fingerprints in the input each get the same answer at the
// cost of no extra I/O. Cancelling ctx stops new page reads between groups
// and between chain pages.
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
		g.group(len(fps), pending, func(i int) uint64 { return db.bucketOf(fps[i]) })
		err := g.eachRun(ctx, func(cs *chainScratch, run []keyed) error {
			return db.getChain(ctx, cs, run, fps, vals, found, &stale)
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

// getChain walks one bucket chain, resolving every probe of the run. Each
// chain page is read exactly once and scanned for all still-missing
// fingerprints of the group.
func (db *DB) getChain(ctx context.Context, cs *chainScratch, run []keyed, fps []fingerprint.Fingerprint, vals []Value, found []bool, stale *staleList) error {
	bucket := db.bucketOf(fps[run[0].idx])
	st := db.stripeOf(bucket)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	fpOf := func(i int32) fingerprint.Fingerprint { return fps[i] }
	live := db.live(cs, bucket, run, fpOf, stale)
	if len(live) == 0 {
		return nil
	}
	distinct := cs.index(live, fpOf)
	done := ctx.Done()
	cs.chain = cs.chain[:0]
	page := cs.addPage(0).buf
	for p, remaining := db.bucketPageOf(bucket), distinct; p != 0 && remaining > 0; {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := db.readPage(p, page); err != nil {
			return err
		}
		hits := cs.scan(page, remaining, fpOf)
		for _, h := range hits {
			idx := cs.slots[h.slot].first
			vals[idx], found[idx] = entryVal(page, int(h.entry)), true
		}
		remaining -= len(hits)
		p = pageNext(page)
	}
	if distinct < len(live) { // duplicates take their first's answer
		for _, idx := range live {
			if first := cs.slot(fps[idx], fpOf).first; first != idx {
				vals[idx], found[idx] = vals[first], found[first]
			}
		}
	}
	return nil
}

// GetBatch looks up every fingerprint. The in-RAM store has no pages to
// coalesce, but probes still overlap across shard groups up to
// parallel.IODepth so a MemStore charged to a Sleep-mode device exposes
// the same device parallelism as the on-disk table — this is what keeps
// MemStore an honest stand-in for the SSD hash table in simulations.
// Cancelling ctx stops new device reads between probes.
func (s *MemStore) GetBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([]Value, []bool, error) {
	vals := make([]Value, len(fps))
	found := make([]bool, len(fps))
	if len(fps) == 0 {
		return vals, found, nil
	}
	g := getGroupScratch()
	defer putGroupScratch(g)
	g.group(len(fps), nil, func(i int) uint64 { return fps[i].Bucket64() & (memShards - 1) })
	done := ctx.Done()
	err := g.eachRun(ctx, func(_ *chainScratch, run []keyed) error {
		sh := s.shard(fps[run[0].idx])
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		if s.closed {
			return ErrClosed
		}
		for _, it := range run {
			if done != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			s.dev.Read(entrySize)
			vals[it.idx], found[it.idx] = sh.m[fps[it.idx]]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}
