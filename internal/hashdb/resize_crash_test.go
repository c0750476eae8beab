package hashdb

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// TestGrowUnsyncedCrashReopens is the cost of committing (level, split) only
// at clean commits, now that growth is every table's normal state: a table
// grown from its base to two thousand buckets and killed reopens with every
// split since its last Sync undone and grows again on its next write. With a
// Sync on the way the header knows the directory, and recovery rolls the
// later splits back one by one; with none since Create the header is still
// Create's and names no directory, so every split bucket's pages are orphans
// and are salvaged as such. Either way nothing acked is lost, nothing doubles,
// and the log line says how long the reopen took.
func TestGrowUnsyncedCrashReopens(t *testing.T) {
	target := uint64(2000)
	if raceEnabled {
		target = 700 // one goroutine; a third of the inserts under the detector
	}
	for _, syncAt := range []uint64{0, 400} {
		t.Run(fmt.Sprintf("sync-at-%d-buckets", syncAt), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "unsynced.shdb")
			db, err := create(path, Options{})
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			const batch = 2048
			var n uint64
			pairs := make([]Pair, batch)
			wave := func() {
				for i := range pairs {
					pairs[i] = Pair{FP: fp(n + uint64(i)), Val: Value(n + uint64(i))}
				}
				if _, _, err := db.PutBatch(t.Context(), pairs); err != nil {
					t.Fatalf("PutBatch at %d: %v", n, err)
				}
				n += batch
			}
			committed := uint64(startBuckets)
			for db.Stats().Buckets < target {
				wave()
				if fill := db.Stats().UnsplitFill; fill > sweepTo {
					t.Fatalf("after %d inserts: unsplit fill %.1f above sweepTo %.1f", n, fill, sweepTo)
				}
				if b := db.Stats().Buckets; syncAt != 0 && committed == startBuckets && b >= syncAt {
					if err := db.Sync(); err != nil {
						t.Fatalf("Sync: %v", err)
					}
					committed = b
				}
			}
			grown := db.Stats()
			if err := db.CloseWithoutSync(); err != nil {
				t.Fatalf("CloseWithoutSync: %v", err)
			}

			start := time.Now()
			db, err = Open(path)
			if err != nil {
				t.Fatalf("Open after the kill: %v", err)
			}
			defer db.Close()
			reopen := time.Since(start)
			rs, st := db.Recovery(), db.Stats()
			t.Logf("%d entries in %d buckets, %d committed: reopen %v (%d splits rolled back, %d orphan pages, %d entries salvaged, %d pages scanned); back at %d buckets, load factor %.2f",
				grown.Entries, grown.Buckets, committed, reopen.Round(time.Millisecond), rs.SplitRollbacks, rs.OrphanPages, rs.SalvagedEntries, rs.PagesScanned, st.Buckets, st.LoadFactor)
			if rs.Runs != 1 || rs.TornPages != 0 || rs.TailBytes != 0 || rs.DroppedEntries != 0 || rs.RepairedLinks != 0 {
				t.Fatalf("recovery after a whole-write kill: %+v", rs)
			}
			if st.Buckets != committed {
				t.Fatalf("reopened at %d buckets, the last Sync committed %d", st.Buckets, committed)
			}
			undone := grown.Buckets - committed
			if syncAt != 0 && rs.SplitRollbacks != undone {
				t.Fatalf("rolled back %d splits, want %d", rs.SplitRollbacks, undone)
			}
			if syncAt == 0 && (rs.SplitRollbacks != 0 || rs.OrphanPages < undone/2) {
				t.Fatalf("Create's header names no directory: want no rollbacks and the split buckets salvaged as orphans, got %+v", rs)
			}
			if rs.SalvagedEntries == 0 || rs.SalvagedEntries >= n || st.Entries != n {
				t.Fatalf("salvaged %d of %d entries, table holds %d", rs.SalvagedEntries, n, st.Entries)
			}
			verify := func(when string) {
				t.Helper()
				seen := rangeOnce(t, db, when)
				if uint64(len(seen)) != n {
					t.Fatalf("%s: Range saw %d entries, %d were acked", when, len(seen), n)
				}
				for k := uint64(0); k < n; k++ {
					if v, ok := seen[fp(k)]; !ok || v != Value(k) {
						t.Fatalf("%s: acked key %d = (%d, %v)", when, k, v, ok)
					}
				}
				if err := db.Check(); err != nil {
					t.Fatalf("%s: Check: %v", when, err)
				}
			}
			verify("after recovery")
			// The next write grows the table back to the size of its content.
			wave()
			if st := db.Stats(); st.UnsplitFill > sweepTo || st.Buckets < grown.Buckets {
				t.Fatalf("after the next wave: %d buckets at unsplit fill %.1f, want at least %d at or under %.1f",
					st.Buckets, st.UnsplitFill, grown.Buckets, sweepTo)
			}
			verify("after regrowth")
		})
	}
}
