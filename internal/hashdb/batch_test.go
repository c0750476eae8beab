package hashdb

import (
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"shhc/internal/device"
	"shhc/internal/fingerprint"
)

// TestGetBatchCoalescesPageReads is the point of the API: a batch touching
// b distinct buckets must charge the device ~b page reads, not one per
// fingerprint.
func TestGetBatchCoalescesPageReads(t *testing.T) {
	dev := device.New(device.SSD, device.Account)
	db, err := Create(filepath.Join(t.TempDir(), "coalesce.db"), Options{Buckets: 8, Device: dev})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer db.Close()

	const n = 500 // 500 entries over 8 buckets: every page holds many probes
	fps := make([]fingerprint.Fingerprint, n)
	for i := range fps {
		fps[i] = fingerprint.FromUint64(uint64(i))
		if _, err := db.Put(fps[i], Value(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}

	before := dev.Stats().Reads
	_, found, err := db.GetBatch(context.Background(), fps)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("probe %d missing", i)
		}
	}
	batchReads := dev.Stats().Reads - before

	before = dev.Stats().Reads
	for _, fp := range fps {
		if _, _, err := db.Get(fp); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	pointReads := dev.Stats().Reads - before

	if batchReads >= pointReads/4 {
		t.Fatalf("GetBatch charged %d reads vs %d for point probes; want at least 4x coalescing", batchReads, pointReads)
	}
	// 500 entries in 8 buckets overflow each bucket's page chain; the
	// batch still reads each chain page at most once.
	maxPages := int64(db.Stats().Pages)
	if batchReads > maxPages {
		t.Fatalf("GetBatch charged %d reads for a %d-page file", batchReads, maxPages)
	}
}

func TestGetBatchEmptyAndClosed(t *testing.T) {
	db, err := Create(filepath.Join(t.TempDir(), "edge.db"), Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, _, err := db.GetBatch(context.Background(), nil); err != nil {
		t.Fatalf("GetBatch(nil): %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := db.GetBatch(context.Background(), []fingerprint.Fingerprint{fingerprint.FromUint64(1)}); err == nil {
		t.Fatal("GetBatch on closed DB succeeded")
	}
}

// TestGroupRunsMatchMap checks the counting-sort grouping against the
// obvious one (a map of slices) over batch sizes from one key up, key
// domains from one value (every item in one run) to far more values than
// items (nearly every item its own run), every key packed into one
// partition of a far larger bound (the adversarial batch), and retry-style
// index subsets, reusing one scratch throughout: every item lands in exactly
// one run, a run holds exactly the items of one key, in input order, and the
// runs ascend by key.
func TestGroupRunsMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc groupScratch
	for round := 0; round < 2000; round++ {
		n := 1 + rng.Intn(1+rng.Intn(3000))
		domain := uint64(1 + rng.Intn(1+rng.Intn(4*n)))
		bound := domain
		if round%3 == 0 {
			bound = 1 << 40 // partitions of 2^28 keys or more: the first holds them all
		}
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Int63n(int64(domain)))
		}
		var idxs []int32
		if round%4 == 1 {
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					idxs = append(idxs, int32(i))
				}
			}
			if idxs == nil {
				idxs = []int32{int32(rng.Intn(n))}
			}
		}
		want := make(map[uint64][]int32)
		total := 0
		for i := 0; i < n; i++ {
			if idxs == nil || slices.Contains(idxs, int32(i)) {
				want[keys[i]] = append(want[keys[i]], int32(i))
				total++
			}
		}
		sc.group(n, idxs, bound, func(i int) uint64 { return keys[i] })
		if len(sc.items) != total || len(sc.starts) != len(want)+1 || int(sc.starts[len(want)]) != total {
			t.Fatalf("round %d: %d items in %d runs ending at %d, want %d items in %d runs",
				round, len(sc.items), len(sc.starts)-1, sc.starts[len(sc.starts)-1], total, len(want))
		}
		for r := 0; r+1 < len(sc.starts); r++ {
			run := sc.items[sc.starts[r]:sc.starts[r+1]]
			var got []int32
			for _, it := range run {
				got = append(got, it.idx)
			}
			if k := keys[run[0].idx]; !slices.Equal(got, want[k]) {
				t.Fatalf("round %d run %d (key %d): items %v, want %v", round, r, k, got, want[k])
			}
			if r > 0 && sc.items[sc.starts[r-1]].key >= run[0].key {
				t.Fatalf("round %d: run %d (key %d) follows key %d", round, r, run[0].key, sc.items[sc.starts[r-1]].key)
			}
		}
	}
}

// TestScanKernelMatchesNaive holds the chain-scan kernel to a compare of
// every page entry with every fingerprint of the run: seeded pages and runs
// drawn from one pool, with in-batch duplicates, fingerprints no page
// holds, and decoys that share a page entry's Bucket64 word and differ
// elsewhere. Runs of one distinct fingerprint take the word-compare path,
// larger ones the index; a fingerprint found on one page is not matched on
// the next.
func TestScanKernelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := make([]fingerprint.Fingerprint, 300)
	for i := range pool {
		pool[i] = fp(uint64(i))
		if i%10 == 9 { // a decoy: the previous one's Bucket64, another prefix
			pool[i] = fingerprint.FromWords(rng.Uint64(), pool[i-1].Bucket64(), pool[i-1].Tail32())
		}
	}
	page := func() []byte {
		pg := make([]byte, PageSize)
		n := rng.Intn(SlotsPerPage + 1)
		for j, k := range rng.Perm(len(pool))[:n] {
			setEntryAt(pg, j, pool[k], Value(k))
		}
		setPageCount(pg, n)
		return pg
	}
	cs := new(chainScratch)
	for round := 0; round < 2000; round++ {
		size := 1 + rng.Intn(40)
		if round%4 == 0 {
			size = 1 + rng.Intn(3) // mostly one distinct fingerprint, duplicated
		}
		keys := make([]fingerprint.Fingerprint, size)
		live := make([]int32, size)
		for i := range keys {
			keys[i] = pool[rng.Intn(len(pool))]
			if round%4 == 0 {
				keys[i] = keys[0]
			}
			live[i] = int32(i)
		}
		fpOf := func(i int32) fingerprint.Fingerprint { return keys[i] }
		distinct := cs.index(live, fpOf)
		found := map[fingerprint.Fingerprint]bool{}
		for _, pg := range [][]byte{page(), page()} {
			want := map[int32]fingerprint.Fingerprint{} // entry -> key, the naive way
			for j := 0; j < pageCount(pg); j++ {
				for _, k := range keys {
					if !found[k] && entryIs(pg, j, k) {
						want[int32(j)] = k
					}
				}
			}
			hits := cs.scan(pg, distinct-len(found), fpOf)
			if len(hits) != len(want) {
				t.Fatalf("round %d: %d hits, want %d", round, len(hits), len(want))
			}
			for _, h := range hits {
				sl := cs.slots[h.slot]
				if k, ok := want[h.entry]; !ok || keys[sl.first] != k || !sl.found {
					t.Fatalf("round %d: entry %d matched key %d, want %v", round, h.entry, sl.first, k)
				}
				if keys[sl.last] != keys[sl.first] || firstIndex(keys, keys[sl.first]) != sl.first || lastIndex(keys, keys[sl.first]) != sl.last {
					t.Fatalf("round %d: slot's first/last %d/%d are not its key's first and last items", round, sl.first, sl.last)
				}
				found[keys[sl.first]] = true
			}
		}
	}
}

func firstIndex(keys []fingerprint.Fingerprint, k fingerprint.Fingerprint) int32 {
	for i := range keys {
		if keys[i] == k {
			return int32(i)
		}
	}
	return -1
}

func lastIndex(keys []fingerprint.Fingerprint, k fingerprint.Fingerprint) int32 {
	for i := len(keys) - 1; i >= 0; i-- {
		if keys[i] == k {
			return int32(i)
		}
	}
	return -1
}
