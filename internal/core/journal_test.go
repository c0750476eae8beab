package core

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

// stalledJournalNode builds a write-back node whose destager never fires
// on its own (huge batch/interval), so every evicted entry stays in the
// dirty buffer — and therefore in the journal — until Flush or Close.
func stalledJournalNode(t *testing.T, store hashdb.Store, journalPath string, cacheSize int) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		ID:              "jnl-node",
		Store:           store,
		CacheSize:       cacheSize,
		BloomExpected:   1 << 12,
		WriteBack:       true,
		JournalPath:     journalPath,
		destageBatch:    1 << 20,
		destageInterval: time.Hour,
		destageQueue:    1 << 20,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	return n
}

// TestJournalReplayRecoversBufferedEvictions is the core durability claim:
// entries evicted from the cache but never destaged are rebuilt into the
// store by open-time replay of the journal alone.
func TestJournalReplayRecoversBufferedEvictions(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	const cache, inserts = 8, 64

	n := stalledJournalNode(t, hashdb.NewMemStore(), jpath, cache)
	for i := uint64(0); i < inserts; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i+7)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Crash: snapshot the journal as it stands — evictions are journaled
	// before they acknowledge, so every evicted entry must be in it — and
	// abandon the node's RAM state entirely.
	snap, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()

	// A brand-new store: what survives can only come from the journal.
	n2 := stalledJournalNode(t, hashdb.NewMemStore(), crashWAL(t, dir, snap), cache)
	defer n2.Close()

	st, err := n2.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	const evicted = inserts - cache
	if st.Recovery.JournalReplayed != evicted {
		t.Fatalf("Recovery.JournalReplayed = %d, want %d", st.Recovery.JournalReplayed, evicted)
	}
	for i := uint64(0); i < evicted; i++ {
		r, err := n2.Lookup(context.Background(), fp(i))
		if err != nil {
			t.Fatalf("Lookup(%d) after replay: %v", i, err)
		}
		if !r.Exists || r.Value != Value(i+7) {
			t.Fatalf("Lookup(%d) after replay = %+v, want Exists with value %d (acked eviction lost)", i, r, i+7)
		}
	}
}

// TestJournalTruncatesAfterQuiesce pins the fsync discipline: once destage
// waves drain the buffer, the journal is truncated (after a store sync),
// and a clean Close leaves nothing to replay.
func TestJournalTruncatesAfterQuiesce(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	store := hashdb.NewMemStore()
	n, err := NewNode(NodeConfig{
		ID:            "jnl-node",
		Store:         store,
		CacheSize:     8,
		BloomExpected: 1 << 12,
		WriteBack:     true,
		JournalPath:   jpath,
		destageBatch:  4,
		destageQueue:  16,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	for i := uint64(0); i < 128; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// The buffer is empty after Flush; the quiesce truncation has run.
	fi, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 64 {
		t.Fatalf("journal still %d bytes after a drained Flush, want truncated to its header", fi.Size())
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	n2 := stalledJournalNode(t, store, jpath, 8)
	defer n2.Close()
	st, err := n2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovery.JournalReplayed != 0 {
		t.Fatalf("clean shutdown left %d journal records to replay", st.Recovery.JournalReplayed)
	}
}

// syncOrderStore logs the store calls a destager makes, "put" for a
// PutBatch and "sync" for a Sync, each with the journal's size as the call
// starts.
type syncOrderStore struct {
	hashdb.Store
	jpath string
	mu    sync.Mutex
	ops   []string
	sizes []int64
}

func (s *syncOrderStore) log(op string) {
	fi, err := os.Stat(s.jpath)
	size := int64(-1)
	if err == nil {
		size = fi.Size()
	}
	s.mu.Lock()
	s.ops, s.sizes = append(s.ops, op), append(s.sizes, size)
	s.mu.Unlock()
}

func (s *syncOrderStore) PutBatch(ctx context.Context, pairs []hashdb.Pair) ([]bool, int, error) {
	s.log("put")
	return s.Store.PutBatch(ctx, pairs)
}

func (s *syncOrderStore) Sync() error {
	s.log("sync")
	return s.Store.Sync()
}

// TestJournalTruncatesOnlyAfterStoreSync: the journal may shrink only once
// the store has synced every PutBatch before the shrink. Truncating after
// the writes but before their fsync drops the only durable copy of entries
// a crash can still take from the store.
func TestJournalTruncatesOnlyAfterStoreSync(t *testing.T) {
	old := journalCheckpointBytes
	journalCheckpointBytes = 1024 // truncate after every wave that empties the buffer
	defer func() { journalCheckpointBytes = old }()

	jpath := filepath.Join(t.TempDir(), "node.wal")
	store := &syncOrderStore{Store: hashdb.NewMemStore(), jpath: jpath}
	n, err := NewNode(NodeConfig{
		ID:            "jnl-node",
		Store:         store,
		CacheSize:     8,
		BloomExpected: 1 << 12,
		WriteBack:     true,
		JournalPath:   jpath,
		destageBatch:  4,
		destageQueue:  16,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	for i := uint64(0); i < 128; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := n.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	store.log("end")
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	store.mu.Lock()
	defer store.mu.Unlock()
	shrinks, synced := 0, false
	for i, op := range store.ops {
		if i > 0 && store.sizes[i] < store.sizes[i-1] {
			shrinks++
			if !synced {
				t.Errorf("journal shrank from %d to %d bytes before %q (call %d) with a PutBatch not yet synced", store.sizes[i-1], store.sizes[i], op, i)
			}
		}
		switch op {
		case "put":
			synced = false
		case "sync":
			synced = true
		}
	}
	if shrinks == 0 {
		t.Fatalf("journal never shrank over %d store calls", len(store.ops))
	}
}

// syncedFile is a journal file that tracks how far its writes reach and how
// far a completed Sync has made them durable.
type syncedFile struct {
	*os.File
	mu                  sync.Mutex
	written, syncedUpTo int64
}

func (f *syncedFile) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(b, off)
	f.mu.Lock()
	f.written = max(f.written, off+int64(n))
	f.mu.Unlock()
	return n, err
}

func (f *syncedFile) Sync() error {
	f.mu.Lock()
	reach := f.written
	f.mu.Unlock()
	err := f.File.Sync()
	if err == nil {
		f.mu.Lock()
		f.syncedUpTo = max(f.syncedUpTo, reach)
		f.mu.Unlock()
	}
	return err
}

// TestJournalWaitReturnsAfterFsync: a record is durable when wait returns,
// which is what lets an eviction acknowledge on it. Concurrent appenders
// share group commits; each one's record must lie within what a completed
// fsync covered. Dropping the group commit's fsync fails it.
func TestJournalWaitReturnsAfterFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f := &syncedFile{File: osf}
	j, _, _, err := newJournal(path, f)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	var wg sync.WaitGroup
	for w := uint64(0); w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 50; i++ {
				lsn := j.append(journalPut, fp(w<<32|i), Value(i))
				if err := j.wait(lsn); err != nil {
					t.Error(err)
					return
				}
				f.mu.Lock()
				synced := f.syncedUpTo
				f.mu.Unlock()
				// Records land in LSN order, so record lsn ends here.
				if end := journalHdrSize + int64(lsn)*journalRecSize; end > synced {
					t.Errorf("record %d (bytes up to %d) acknowledged with only %d bytes synced", lsn, end, synced)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestJournalTombstoneStopsResurrection: a Remove after an eviction leaves
// a tombstone in the journal, so replay of put-then-tombstone must not
// bring the entry back.
func TestJournalTombstoneStopsResurrection(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	const cache = 4

	n := stalledJournalNode(t, hashdb.NewMemStore(), jpath, cache)
	// Insert the victim, then enough to evict it into the buffer/journal.
	victim := fp(1000)
	if _, err := n.LookupOrInsert(context.Background(), victim, Value(42)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2*cache; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Remove(victim); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	snap, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()

	n2 := stalledJournalNode(t, hashdb.NewMemStore(), crashWAL(t, dir, snap), cache)
	defer n2.Close()
	r, err := n2.Lookup(context.Background(), victim)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if r.Exists {
		t.Fatalf("removed entry resurrected by journal replay: %+v", r)
	}
}

// TestJournalTornTailTolerated: replay stops at a torn record and reports
// the dropped bytes; everything before the tear is recovered.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	const cache, inserts = 8, 40

	n := stalledJournalNode(t, hashdb.NewMemStore(), jpath, cache)
	for i := uint64(0); i < inserts; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()

	// Tear the tail mid-record: half of the last record survives.
	const torn = 17
	if len(snap) < 8+2*torn {
		t.Fatalf("journal too small to tear: %d bytes", len(snap))
	}
	n2 := stalledJournalNode(t, hashdb.NewMemStore(), crashWAL(t, dir, snap[:len(snap)-torn]), cache)
	defer n2.Close()
	st, err := n2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const evicted = inserts - cache
	if st.Recovery.JournalReplayed != evicted-1 {
		t.Fatalf("JournalReplayed = %d, want %d (all but the torn record)", st.Recovery.JournalReplayed, evicted-1)
	}
	wantTorn := uint64(journalRecSize - torn)
	if st.Recovery.JournalTornBytes != wantTorn {
		t.Fatalf("JournalTornBytes = %d, want %d", st.Recovery.JournalTornBytes, wantTorn)
	}
	for i := uint64(0); i < evicted-1; i++ {
		r, err := n2.Lookup(context.Background(), fp(i))
		if err != nil || !r.Exists || r.Value != Value(i) {
			t.Fatalf("Lookup(%d) = (%+v, %v), want intact prefix recovered", i, r, err)
		}
	}
}

// TestJournalCoalescedOverwriteKeepsNewest: re-dirtying an entry already
// in the buffer journals the newer value after the older one, so replay
// lands on the newest acknowledged value.
func TestJournalCoalescedOverwriteKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	const cache = 4

	n := stalledJournalNode(t, hashdb.NewMemStore(), jpath, cache)
	target := fp(5000)
	if err := n.Insert(context.Background(), target, Value(1)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2*cache; i++ { // evict target with Value(1)
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Insert(context.Background(), target, Value(2)); err != nil { // re-dirty
		t.Fatal(err)
	}
	for i := uint64(100); i < 100+2*cache; i++ { // evict target again: coalesces in buffer
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()

	n2 := stalledJournalNode(t, hashdb.NewMemStore(), crashWAL(t, dir, snap), cache)
	defer n2.Close()
	r, err := n2.Lookup(context.Background(), target)
	if err != nil || !r.Exists {
		t.Fatalf("Lookup(target) = (%+v, %v), want found", r, err)
	}
	if r.Value != Value(2) {
		t.Fatalf("replayed value = %d, want the newest acknowledged value 2", r.Value)
	}
}

// TestJournalCheckpointBoundsGrowth: when quiesce truncation never fires
// (a destager stalled mid-pressure), the size-triggered checkpoint drains
// the buffer and truncates anyway, so the journal cannot grow without
// bound — and nothing is lost in the process.
func TestJournalCheckpointBoundsGrowth(t *testing.T) {
	old := journalCheckpointBytes
	journalCheckpointBytes = 1024
	defer func() { journalCheckpointBytes = old }()

	dir := t.TempDir()
	jpath := filepath.Join(dir, "node.wal")
	store := hashdb.NewMemStore()
	// Waves would normally never fire (huge batch, huge interval): only
	// the checkpoint can truncate.
	n := stalledJournalNode(t, store, jpath, 8)
	defer n.Close()

	const inserts = 400 // ~392 evictions ≈ 12.9 KB of records without the bound
	for i := uint64(0); i < inserts; i++ {
		if _, err := n.LookupOrInsert(context.Background(), fp(i), Value(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// The checkpoint runs on the destager goroutine; give it a bounded
	// moment to drain and truncate.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fi, err := os.Stat(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() <= journalCheckpointBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal still %d bytes, checkpoint never bounded it (threshold %d)", fi.Size(), journalCheckpointBytes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Checkpointed entries were destaged, not dropped.
	for i := uint64(0); i < inserts; i++ {
		r, err := n.Lookup(context.Background(), fp(i))
		if err != nil || !r.Exists || r.Value != Value(i) {
			t.Fatalf("Lookup(%d) after checkpoint = (%+v, %v), want found with exact value", i, r, err)
		}
	}
}

// journalBytes encodes a journal file: the header, then recs.
func journalBytes(recs ...jrec) []byte {
	b := binary.BigEndian.AppendUint32([]byte(journalMagic), journalVersion)
	for _, r := range recs {
		var rec [journalRecSize]byte
		rec[4] = r.kind
		r.fp.Put(rec[5:])
		binary.BigEndian.PutUint64(rec[5+fingerprint.Size:], uint64(r.val))
		binary.BigEndian.PutUint32(rec[0:4], crc32.ChecksumIEEE(rec[4:]))
		b = append(b, rec[:]...)
	}
	return b
}

// FuzzJournalReplay opens a write-back node on arbitrary bytes as its
// journal. It must not panic or hang, must replay exactly the records
// readJournalRecords accepts (the last record of a fingerprint wins, a
// tombstone deletes), and a second replay of the same bytes into the store
// the first left must change nothing.
func FuzzJournalReplay(f *testing.F) {
	put := func(k uint64) jrec { return jrec{kind: journalPut, fp: fp(k), val: Value(k + 7)} }
	valid := journalBytes(put(1), put(2), jrec{kind: journalDelete, fp: fp(1)}, put(3), jrec{kind: journalPut, fp: fp(2), val: 9})
	f.Add([]byte(nil))
	f.Add(valid[:journalHdrSize])
	f.Add(valid)
	f.Add(valid[:len(valid)-17])                               // a torn tail
	f.Add(append(valid[:journalHdrSize:journalHdrSize], 0, 1)) // a two-byte record
	f.Add(journalBytes(put(4), jrec{kind: 3, fp: fp(5)}, put(6)))
	f.Add([]byte("SHJL\x00\x00\x00\x02"))
	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		var recs []jrec
		torn := uint64(len(wal))
		if len(wal) >= journalHdrSize && string(wal[:4]) == journalMagic && binary.BigEndian.Uint32(wal[4:8]) == journalVersion {
			jf, err := os.Open(crashWAL(t, dir, wal))
			if err != nil {
				t.Fatal(err)
			}
			var valid int64
			recs, valid, _, err = readJournalRecords(jf, int64(len(wal)))
			jf.Close()
			if err != nil {
				t.Fatal(err)
			}
			torn -= uint64(valid)
		}
		want := make(map[fingerprint.Fingerprint]Value)
		for _, r := range recs {
			if r.kind == journalPut {
				want[r.fp] = r.val
			} else {
				delete(want, r.fp)
			}
		}
		store := durableStore{hashdb.NewMemStore()}
		for round := range 2 {
			n := stalledJournalNode(t, store, crashWAL(t, dir, wal), 8)
			st, err := n.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Recovery.JournalReplayed != uint64(len(recs)) || st.Recovery.JournalTornBytes != torn {
				t.Fatalf("round %d: replayed %d records and dropped %d bytes, want %d and %d",
					round, st.Recovery.JournalReplayed, st.Recovery.JournalTornBytes, len(recs), torn)
			}
			if err := n.Close(); err != nil {
				t.Fatalf("round %d: Close: %v", round, err)
			}
			got := make(map[fingerprint.Fingerprint]Value)
			store.Range(func(f fingerprint.Fingerprint, v Value) bool { got[f] = v; return true })
			if !maps.Equal(got, want) {
				t.Fatalf("round %d: the store holds %v after replay, want %v", round, got, want)
			}
		}
	})
}
