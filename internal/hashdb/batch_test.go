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
// items (nearly every item its own run), keys that collide in their top
// bits (the adversarial batch), and retry-style index subsets, reusing one
// scratch throughout:
// every item lands in exactly one run, a run holds exactly the items of one
// key, and they are in input order.
func TestGroupRunsMatchMap(t *testing.T) {
	unspread := uint64(1) // spread's inverse mod 2^64, by Newton's iteration
	for i := 0; i < 6; i++ {
		unspread *= 2 - spread*unspread
	}
	if unspread*spread != 1 {
		t.Fatalf("unspread = %#x is not spread's inverse", unspread)
	}
	rng := rand.New(rand.NewSource(7))
	var sc groupScratch
	for round := 0; round < 2000; round++ {
		n := 1 + rng.Intn(1+rng.Intn(3000))
		domain := uint64(1 + rng.Intn(1+rng.Intn(4*n)))
		stride := uint64(1)
		if round%3 == 0 {
			stride = unspread // every key scrambles to a small number: one partition holds them all
		}
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Int63n(int64(domain))) * stride
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
		sc.group(n, idxs, func(i int) uint64 { return keys[i] })
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
		}
	}
}
