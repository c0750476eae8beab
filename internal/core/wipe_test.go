package core

// The wipe-disk chaos harness — the PR's headline scenario. A 3-node
// replicated cluster (file-backed stores, journaled write-back, majority
// quorum) is seeded, then one node is killed, its disk WIPED (hash table
// and journal deleted), and an empty node with the same identity rejoins
// the ring — all while reader and writer goroutines hammer the seeded
// fingerprints. The invariants:
//
//   - No ghost news, ever: at no point — owner dead, owner wiped-empty,
//     mid-repair — may the cluster report a seeded fingerprint as new.
//     A wiped replica's miss is a divergence to repair, not an answer.
//   - Anti-entropy heals the wipe: after one sweep plus queue drain,
//     every seeded fingerprint is present on its full replica set with
//     its original value, and the sweep's own accounting (and the
//     cluster's replication counters) show the repairs happened.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

const (
	wipeSeeds   = 1500 // seeded fingerprints
	wipeHotSet  = 300  // prefix the chaos workers hammer (the rest is left for anti-entropy)
	wipeWorkers = 4
)

func wipeVal(i uint64) Value { return Value(i + 1) }

// newWipeNode builds one journaled write-back node over a file-backed
// hash table under dir.
func newWipeNode(t *testing.T, dir string, id ring.NodeID) *Node {
	t.Helper()
	db, err := hashdb.Create(filepath.Join(dir, string(id)+".shdb"), hashdb.Options{})
	if err != nil {
		t.Fatalf("hashdb.Create(%s): %v", id, err)
	}
	n, err := NewNode(NodeConfig{
		ID:              id,
		Store:           db,
		CacheSize:       64,
		BloomExpected:   1 << 12,
		WriteBack:       true,
		JournalPath:     filepath.Join(dir, string(id)+".wal"),
		DestageBatch:    8,
		DestageInterval: 200 * time.Microsecond,
		DestageQueue:    32,
	})
	if err != nil {
		t.Fatalf("NewNode(%s): %v", id, err)
	}
	return n
}

func TestChaosWipeDiskRejoinAndAntiEntropy(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	nodes := make([]*Node, 3)
	backends := make([]Backend, 3)
	for i := range nodes {
		nodes[i] = newWipeNode(t, dir, ring.NodeID(fmt.Sprintf("node-%d", i)))
		backends[i] = nodes[i]
	}
	c, err := NewCluster(ClusterConfig{Replicas: 2}, backends...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	// Seed. Every ack is quorum-backed: two durable copies.
	pairs := make([]Pair, wipeSeeds)
	for i := range pairs {
		pairs[i] = Pair{FP: fingerprint.FromUint64(uint64(i)), Val: wipeVal(uint64(i))}
	}
	rs, err := c.BatchLookupOrInsert(ctx, pairs)
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	for i, r := range rs {
		if r.Exists {
			t.Fatalf("seed %d reported existing", i)
		}
	}

	// Chaos workers: readers and re-inserters over the hot set. A ghost
	// new — a seeded fingerprint reported as not existing — is the
	// dedup-correctness violation this harness exists to catch. Write
	// workers re-propose the ORIGINAL value, as a backup client
	// re-uploading a chunk would; transport errors (the victim dies mid
	// chaos) are tolerated and counted separately.
	var (
		ghostNews atomic.Int64
		softErrs  atomic.Int64
		stop      = make(chan struct{})
		wg        sync.WaitGroup
	)
	for w := 0; w < wipeWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := uint64(rng.Intn(wipeHotSet))
				fp := fingerprint.FromUint64(i)
				var r LookupResult
				var err error
				if w%2 == 0 {
					r, err = c.Lookup(ctx, fp)
				} else {
					r, err = c.LookupOrInsert(ctx, fp, wipeVal(i))
				}
				if err != nil {
					softErrs.Add(1)
					continue
				}
				if !r.Exists {
					ghostNews.Add(1)
					t.Errorf("ghost new: seeded fingerprint %d reported as new", i)
					return
				}
				if r.Value != wipeVal(i) {
					t.Errorf("seeded fingerprint %d answered with value %d, want %d", i, r.Value, wipeVal(i))
					return
				}
			}
		}(w)
	}

	victim := nodes[1]
	victimID := victim.ID()

	// Kill: the victim stops answering while still a ring member, so
	// lookups exercise failover and miss-verification against a dead
	// replica.
	time.Sleep(5 * time.Millisecond)
	victim.Close()
	time.Sleep(5 * time.Millisecond)

	// Wipe: the disk is gone — hash table file and destage journal both.
	if err := c.RemoveNode(victimID); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, string(victimID)+".shdb")); err != nil {
		t.Fatalf("wipe store: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, string(victimID)+".wal")); err != nil {
		t.Fatalf("wipe journal: %v", err)
	}

	// Rejoin: same identity, empty disks. From here every lookup that
	// routes to the reborn node sees a miss it must not trust.
	reborn := newWipeNode(t, dir, victimID)
	nodes[1] = reborn
	if err := c.AddNode(reborn); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	time.Sleep(10 * time.Millisecond) // chaos window: workers vs. empty rejoined owner

	// Heal: one sweep re-replicates everything the wipe lost (the hot
	// set may already have been partially backfilled by read-repair; the
	// cold majority of the key space has only anti-entropy). The
	// membership changes above also woke the background sweeper, which
	// races this manual sweep — some sweep must have repaired entries,
	// but it may be either one, so poll the cumulative counter.
	if _, err := c.AntiEntropy(ctx); err != nil {
		t.Fatalf("AntiEntropy: %v", err)
	}
	healDeadline := time.Now().Add(5 * time.Second)
	for c.ReplicationStats().AntiEntropyRepaired == 0 {
		if time.Now().After(healDeadline) {
			t.Fatal("no sweep repaired anything after the wipe")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.FlushRepairs(ctx); err != nil {
		t.Fatalf("FlushRepairs: %v", err)
	}

	close(stop)
	wg.Wait()
	if n := ghostNews.Load(); n != 0 {
		t.Fatalf("%d ghost news during chaos (soft errors: %d)", n, softErrs.Load())
	}

	// Replication restored: every seeded fingerprint is on its full
	// replica set with its original value.
	for i := uint64(0); i < wipeSeeds; i++ {
		fp := fingerprint.FromUint64(i)
		replicas, err := c.routingFor(fp)
		if err != nil {
			t.Fatalf("routingFor: %v", err)
		}
		if len(replicas) != 2 {
			t.Fatalf("fingerprint %d has %d replicas, want 2", i, len(replicas))
		}
		for _, b := range replicas {
			r, err := b.Lookup(ctx, fp)
			if err != nil {
				t.Fatalf("replica %s lookup %d after heal: %v", b.ID(), i, err)
			}
			if !r.Exists || r.Value != wipeVal(i) {
				t.Fatalf("replica %s of fingerprint %d = %+v, want exists value %d", b.ID(), i, r, wipeVal(i))
			}
		}
	}

	// Full client-visible sweep: re-proposing every seeded fingerprint
	// must report duplicates across the board — zero ghost news after a
	// wipe, kill, and rejoin.
	rs, err = c.BatchLookupOrInsert(ctx, pairs)
	if err != nil {
		t.Fatalf("final sweep: %v", err)
	}
	for i, r := range rs {
		if !r.Exists || r.Value != wipeVal(uint64(i)) {
			t.Fatalf("final sweep: seeded fingerprint %d = %+v, want exists value %d", i, r, wipeVal(uint64(i)))
		}
	}

	// The counters that webfront surfaces must show the healing happened.
	repl := c.ReplicationStats()
	if repl.AntiEntropyRuns == 0 || repl.AntiEntropyRepaired == 0 {
		t.Fatalf("replication counters missed the sweep: %+v", repl)
	}
}
