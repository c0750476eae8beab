package bench

// ---------------------------------------------------------------------------
// Recovery benchmark: what the destage journal costs and what reopen pays.
//
// Two questions, one artifact (BENCH_recovery.json):
//
//   - the durability tax: write-back insert throughput with the journal on
//     (every eviction group-commit fsynced before it acks) versus off
//     (the pre-journal crash window), at several writer concurrencies —
//     group commit amortizes the fsync across concurrent evictors, so the
//     gap should narrow as writers grow;
//   - the recovery bill: node reopen time (journal replay into a fresh
//     on-disk hash table) as a function of how many dirty entries the
//     crash stranded in the buffer.
// ---------------------------------------------------------------------------

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"shhc/internal/core"
	"shhc/internal/device"
	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
	"shhc/internal/ring"
)

// RecoveryPoint is one cell of the recovery benchmark.
type RecoveryPoint struct {
	// Kind is "insert" (durability-tax cell) or "replay" (reopen cell).
	Kind    string `json:"kind"`
	Journal bool   `json:"journal"`
	// Insert cells: Ops inserts fed by Writers goroutines.
	Ops        int           `json:"ops,omitempty"`
	Writers    int           `json:"writers,omitempty"`
	Throughput float64       `json:"throughputOpsPerSec,omitempty"`
	Elapsed    time.Duration `json:"elapsedNanos,omitempty"`
	// Replay cells: DirtyEntries stranded in the buffer at the crash,
	// ReplayedEntries recovered, ReopenNanos the full NewNode (replay +
	// store writes + Bloom rebuild) cost.
	DirtyEntries    int           `json:"dirtyEntries,omitempty"`
	ReplayedEntries uint64        `json:"replayedEntries,omitempty"`
	ReopenNanos     time.Duration `json:"reopenNanos,omitempty"`
}

// RunRecoverySweep measures the journal's insert-throughput tax and the
// reopen/replay cost. ops <= 0 selects the default workload size.
func RunRecoverySweep(ops int) ([]RecoveryPoint, error) {
	if ops <= 0 {
		ops = 8192
	}
	dir, err := os.MkdirTemp("", "shhc-recovery-sweep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var points []RecoveryPoint
	for _, writers := range []int{1, 4, 16} {
		for _, journal := range []bool{false, true} {
			p, err := runRecoveryInsertCell(dir, journal, ops, writers)
			if err != nil {
				return nil, fmt.Errorf("bench: recovery insert cell journal=%v writers=%d: %w", journal, writers, err)
			}
			points = append(points, p)
		}
	}
	for _, dirty := range []int{1024, 4096, 16384} {
		p, err := runRecoveryReplayCell(dir, dirty)
		if err != nil {
			return nil, fmt.Errorf("bench: recovery replay cell dirty=%d: %w", dirty, err)
		}
		points = append(points, p)
	}
	return points, nil
}

func runRecoveryInsertCell(dir string, journal bool, ops, writers int) (RecoveryPoint, error) {
	dev := device.New(device.SSD, device.Account)
	path := filepath.Join(dir, fmt.Sprintf("ins-%v-%d.shdb", journal, writers))
	db, err := hashdb.Create(path, hashdb.Options{Device: dev})
	if err != nil {
		return RecoveryPoint{}, err
	}
	cfg := core.NodeConfig{
		ID:            ring.NodeID(fmt.Sprintf("rec-ins-%v-%d", journal, writers)),
		Store:         db,
		CacheSize:     256, // far below the key count: inserts evict and destage
		BloomExpected: 2 * ops,
		WriteBack:     true,
	}
	if journal {
		cfg.JournalPath = path + ".wal"
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		db.Close()
		return RecoveryPoint{}, err
	}

	perWriter := ops / writers
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * perWriter)
			for i := 0; i < perWriter; i++ {
				k := base + uint64(i)
				if _, err := node.LookupOrInsert(context.Background(), fingerprint.FromUint64(k), core.Value(k)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		node.Close()
		return RecoveryPoint{}, err
	default:
	}
	if err := node.Flush(); err != nil {
		node.Close()
		return RecoveryPoint{}, err
	}
	elapsed := time.Since(start)
	if err := node.Close(); err != nil {
		return RecoveryPoint{}, err
	}
	return RecoveryPoint{
		Kind:       "insert",
		Journal:    journal,
		Ops:        ops,
		Writers:    writers,
		Throughput: float64(ops) / elapsed.Seconds(),
		Elapsed:    elapsed,
	}, nil
}

func runRecoveryReplayCell(dir string, dirty int) (RecoveryPoint, error) {
	// Phase 1: strand exactly `dirty` entries in the journal — a stalled
	// destager (huge batch and interval) keeps every eviction buffered.
	const cache = 64
	jpath := filepath.Join(dir, fmt.Sprintf("replay-%d.wal", dirty))
	writer, err := core.NewNode(core.NodeConfig{
		ID:              ring.NodeID(fmt.Sprintf("rec-wal-%d", dirty)),
		Store:           hashdb.NewMemStore(nil),
		CacheSize:       cache,
		BloomExpected:   2 * dirty,
		WriteBack:       true,
		JournalPath:     jpath,
		DestageBatch:    1 << 30,
		DestageInterval: time.Hour,
		DestageQueue:    dirty + cache,
	})
	if err != nil {
		return RecoveryPoint{}, err
	}
	for i := 0; i < dirty+cache; i++ {
		if _, err := writer.LookupOrInsert(context.Background(), fingerprint.FromUint64(uint64(i)), core.Value(i)); err != nil {
			writer.Close()
			return RecoveryPoint{}, err
		}
	}
	snap, err := os.ReadFile(jpath)
	if err != nil {
		writer.Close()
		return RecoveryPoint{}, err
	}
	if err := writer.Close(); err != nil {
		return RecoveryPoint{}, err
	}

	// Phase 2: rebirth against a fresh on-disk table, paying replay's
	// batched store writes plus the Bloom rebuild — the real reopen path.
	crashJournal := filepath.Join(dir, fmt.Sprintf("replay-%d-crash.wal", dirty))
	if err := os.WriteFile(crashJournal, snap, 0o644); err != nil {
		return RecoveryPoint{}, err
	}
	dbPath := filepath.Join(dir, fmt.Sprintf("replay-%d.shdb", dirty))
	db, err := hashdb.Create(dbPath, hashdb.Options{Device: device.New(device.SSD, device.Account)})
	if err != nil {
		return RecoveryPoint{}, err
	}
	start := time.Now()
	reborn, err := core.NewNode(core.NodeConfig{
		ID:            ring.NodeID(fmt.Sprintf("rec-replay-%d", dirty)),
		Store:         db,
		CacheSize:     cache,
		BloomExpected: 2 * dirty,
		WriteBack:     true,
		JournalPath:   crashJournal,
	})
	if err != nil {
		db.Close()
		return RecoveryPoint{}, err
	}
	reopen := time.Since(start)
	st, err := reborn.Stats(context.Background())
	if err != nil {
		reborn.Close()
		return RecoveryPoint{}, err
	}
	if err := reborn.Close(); err != nil {
		return RecoveryPoint{}, err
	}
	if got, want := st.Recovery.JournalReplayed, uint64(dirty); got != want {
		return RecoveryPoint{}, fmt.Errorf("replay cell recovered %d entries, want %d", got, want)
	}
	return RecoveryPoint{
		Kind:            "replay",
		Journal:         true,
		DirtyEntries:    dirty,
		ReplayedEntries: st.Recovery.JournalReplayed,
		ReopenNanos:     reopen,
	}, nil
}

// FormatRecoverySweep renders the sweep as a text table.
func FormatRecoverySweep(points []RecoveryPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %8s %10s %14s %12s %12s\n",
		"kind", "journal", "writers", "ops/dirty", "throughput/s", "elapsed", "reopen")
	for _, p := range points {
		switch p.Kind {
		case "insert":
			fmt.Fprintf(&b, "%-8s %-8v %8d %10d %14.0f %12v %12s\n",
				p.Kind, p.Journal, p.Writers, p.Ops, p.Throughput, p.Elapsed.Round(time.Millisecond), "-")
		case "replay":
			fmt.Fprintf(&b, "%-8s %-8v %8s %10d %14s %12s %12v\n",
				p.Kind, p.Journal, "-", p.DirtyEntries, "-", "-", p.ReopenNanos.Round(time.Microsecond))
		}
	}
	return b.String()
}

// EmitRecoveryReport writes the sweep to path as the BENCH_recovery.json
// artifact.
func EmitRecoveryReport(path string, points []RecoveryPoint) error {
	data, err := json.MarshalIndent(struct {
		Experiment string          `json:"experiment"`
		Points     []RecoveryPoint `json:"points"`
	}{Experiment: "recovery-journal", Points: points}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
