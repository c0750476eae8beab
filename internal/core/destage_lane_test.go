package core

// Tests of the destager's routing rule: a wave nobody is blocked on reaches
// the store on parallel's background lane, a wave somebody waits for at full
// depth — from its start, or from the moment the waiting begins.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"shhc/internal/hashdb"
	"shhc/internal/parallel"
)

func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// onBackgroundLane reports which lane parallel.Do runs ctx's calls on, by
// where two items of a two-worker call run: on the caller's goroutine only
// on the background lane, on two new ones on the foreground lane.
func onBackgroundLane(ctx context.Context) bool {
	caller, inline := goid(), true
	var mu sync.Mutex
	_ = parallel.Do(ctx, 2, 2, func(int) error {
		mu.Lock()
		inline = inline && goid() == caller
		mu.Unlock()
		return nil
	})
	return inline
}

// laneStore records the lane of every batched write.
type laneStore struct {
	*hashdb.DB
	mu         sync.Mutex
	background []bool
	// entered and release, when set, park each PutBatch between them;
	// entered is buffered for more waves than the test using it starts.
	// released is each parked wave's lane when it was let go.
	entered, release chan struct{}
	released         []bool
}

func (s *laneStore) PutBatch(ctx context.Context, pairs []hashdb.Pair) ([]bool, int, error) {
	s.mu.Lock()
	s.background = append(s.background, onBackgroundLane(ctx))
	s.mu.Unlock()
	if s.entered != nil {
		s.entered <- struct{}{}
		<-s.release
		s.mu.Lock()
		s.released = append(s.released, onBackgroundLane(ctx))
		s.mu.Unlock()
	}
	return s.DB.PutBatch(ctx, pairs)
}

func (s *laneStore) lanesAtRelease() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.released)
}

func (s *laneStore) lanes() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.background)
}

func TestDestageWaveLanes(t *testing.T) {
	t.Run("threshold, then Flush, then Close", func(t *testing.T) {
		store := &laneStore{DB: hashdb.CreateMem(nil, hashdb.Options{})}
		n := cleanAheadNode(t, store, "")
		insertRange(t, n, 0, caWave)
		waitUntil(t, "the threshold wave cleaned its entries", func() bool { return n.cache.DirtyLen() == 0 })
		insertRange(t, n, caWave, caWave+100)
		if err := n.Flush(); err != nil {
			t.Fatal(err)
		}
		insertRange(t, n, caWave+100, caWave+150)
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := store.lanes(), []bool{true, false, false}; !slices.Equal(got, want) {
			t.Fatalf("background lane per wave = %v, want %v (threshold, Flush, Close)", got, want)
		}
	})

	t.Run("interval", func(t *testing.T) {
		store := &laneStore{DB: hashdb.CreateMem(nil, hashdb.Options{})}
		n := newMemNode(t, NodeConfig{
			Store: store, CacheSize: 8, WriteBack: true,
			destageBatch: 1 << 20, destageQueue: 1 << 20, destageInterval: time.Millisecond,
		})
		insertRange(t, n, 0, 20) // 12 dirty evictions into the buffer, far below a wave's worth
		waitUntil(t, "the interval fired a wave", func() bool { return len(store.lanes()) > 0 })
		if !store.lanes()[0] {
			t.Fatal("an interval-fired wave ran on the foreground lane")
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		old := journalCheckpointBytes
		journalCheckpointBytes = 1024
		defer func() { journalCheckpointBytes = old }()
		store := &laneStore{DB: hashdb.CreateMem(nil, hashdb.Options{})}
		// Neither threshold nor interval can fire: only the checkpoint does.
		n := stalledJournalNode(t, store, filepath.Join(t.TempDir(), "node.wal"), 8)
		defer n.Close()
		insertRange(t, n, 0, 400)
		waitUntil(t, "the checkpoint fired a wave", func() bool { return len(store.lanes()) > 0 })
		if slices.Contains(store.lanes(), true) {
			t.Fatalf("a checkpoint wave, which enqueues are blocked on, ran on the background lane: %v", store.lanes())
		}
	})

	t.Run("full buffer", func(t *testing.T) {
		store := &laneStore{DB: hashdb.CreateMem(nil, hashdb.Options{}), entered: make(chan struct{}, 64), release: make(chan struct{})}
		n := newMemNode(t, NodeConfig{
			Store: store, CacheSize: 8, WriteBack: true,
			destageBatch: 4, destageQueue: 4, destageInterval: time.Hour,
		})
		insertRange(t, n, 0, 4) // a wave's worth: clean-ahead copies them and parks in the store
		<-store.entered
		// With the wave held its entries stay dirty, so filling the cache
		// and evicting four of them fills the buffer.
		insertRange(t, n, 4, 12)
		if got := n.dst.depth(); got != 4 {
			t.Fatalf("buffer holds %d entries, want it full at 4", got)
		}
		store.release <- struct{}{}
		<-store.entered // the next wave finds evictors with nowhere to go
		if got, want := store.lanes(), []bool{true, false}; !slices.Equal(got, want) {
			t.Fatalf("background lane per wave = %v, want %v (threshold, full buffer)", got, want)
		}
		close(store.release)
	})

	// A wave that started with nobody waiting leaves the background lane as
	// soon as somebody does: each waiter raises the flag before it blocks.
	for _, tc := range []struct {
		name string
		wait func(t *testing.T, n *Node) // blocks until the held wave lands
	}{
		{"evictor parks mid-wave", func(t *testing.T, n *Node) { insertRange(t, n, 12, 13) }},
		{"Flush mid-wave", func(t *testing.T, n *Node) {
			if err := n.Flush(); err != nil {
				t.Error(err)
			}
		}},
		{"Remove mid-wave", func(t *testing.T, n *Node) {
			if _, err := n.Remove(fp(0)); err != nil { // fp(0) is in the held wave
				t.Error(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := &laneStore{DB: hashdb.CreateMem(nil, hashdb.Options{}), entered: make(chan struct{}, 64), release: make(chan struct{})}
			n := newMemNode(t, NodeConfig{
				Store: store, CacheSize: 8, WriteBack: true,
				destageBatch: 4, destageQueue: 4, destageInterval: time.Hour,
			})
			var once sync.Once
			release := func() { once.Do(func() { close(store.release) }) }
			t.Cleanup(release) // before the node's Close, also when the test fails
			insertRange(t, n, 0, 4)
			<-store.entered
			insertRange(t, n, 4, 12) // fills the buffer; nobody waits yet
			if !store.lanes()[0] || n.dst.awaited.Load() {
				t.Fatalf("the threshold wave did not start on the background lane (awaited: %v)", n.dst.awaited.Load())
			}
			waited := make(chan struct{})
			go func() { defer close(waited); tc.wait(t, n) }()
			waitUntil(t, "the waiter raised the flag", n.dst.awaited.Load)
			release()
			<-waited
			if store.lanesAtRelease()[0] {
				t.Fatal("a wave somebody had come to wait for was still on the background lane")
			}
		})
	}
}

// gatedFile parks the first page write after arm is closed until release is.
type gatedFile struct {
	hashdb.File
	arm, release chan struct{}
	once         sync.Once
	parked       chan struct{}
}

func (f *gatedFile) WriteAt(p []byte, off int64) (int, error) {
	select {
	case <-f.arm:
		f.once.Do(func() {
			close(f.parked)
			<-f.release
		})
	default:
	}
	return f.File.WriteAt(p, off)
}

// TestForegroundBatchUnderWave: with a wave parked inside hashdb, mid-chain
// and holding a bucket stripe, a batch the cache can answer is answered.
func TestForegroundBatchUnderWave(t *testing.T) {
	const batch = 1024
	path := filepath.Join(t.TempDir(), "wave.shdb")
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f := &gatedFile{File: osf, arm: make(chan struct{}), release: make(chan struct{}), parked: make(chan struct{})}
	db, err := hashdb.CreateFile(f, path, hashdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(NodeConfig{ID: "wave", Store: db, CacheSize: 2 * batch, BloomExpected: 1 << 14, WriteBack: true, destageInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	defer close(f.release) // before Close, which waits for the wave

	close(f.arm)
	pairs := make([]Pair, batch)
	for i := range pairs {
		pairs[i] = Pair{FP: fp(uint64(i)), Val: Value(i + 1)}
	}
	if _, err := n.BatchLookupOrInsert(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	<-f.parked // half the cache is dirty: the wave fired and is inside putUnit
	rs, err := n.BatchLookupOrInsert(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Exists || r.Value != pairs[i].Val || r.Source != SourceCache {
			t.Fatalf("answer %d under the wave = %+v, want the cache's copy", i, r)
		}
	}
	if st, _ := n.Stats(context.Background()); st.Destage.Waves != 0 {
		t.Fatalf("%d waves landed while the file was gated", st.Destage.Waves)
	}
}
