package core

// This file implements the destage journal: the write-ahead log that makes
// the asynchronous destage pipeline crash-consistent.
//
// Since destage became asynchronous, an acknowledged insert can live in
// three places: dirty in the cache, parked in the destage dirty buffer, or
// durable in the store. The first is the write-back bargain the caller
// opted into; the second used to be a silent durability hole — the cache
// had already forgotten the entry, the store had not yet seen it, and a
// crash lost it. The journal closes that hole:
//
//   - every entry entering the dirty buffer (eviction or coalescing
//     overwrite) is appended to the journal *under its index-shard lock*,
//     so per-fingerprint record order matches buffer order, and the
//     eviction does not acknowledge until its record is fsynced;
//   - fsyncs are group-committed: a dedicated syncer goroutine batches
//     every record appended while the previous fsync was in flight into
//     one write+fsync, the same wave-accumulation idea the destager's
//     group-commit clock uses, so concurrent evictors share one fsync
//     instead of paying one each;
//   - Remove appends a tombstone (after the store delete, before the
//     remove acknowledges), so replay cannot resurrect a migrated entry;
//   - once the buffer is empty, the store can be fsynced and the journal
//     truncated — every record it held described an entry the sync just
//     made durable (the truncate re-checks, under the journal lock, that
//     nothing was appended since, so a record for a not-yet-synced entry
//     can never be dropped). The destager does so when the journal has
//     grown or the node is quiet, and on every Flush and Close;
//   - a store write that bypasses the journal — clean-ahead — must never
//     be newer than a record the journal still holds for the same
//     fingerprint, or replay would put the older value (or a tombstone)
//     back over it. The journal therefore remembers which fingerprints it
//     holds records for (mayHold), and clean-ahead appends a fresh record
//     for such an entry, durable before its wave is written;
//   - NewNode replays the journal into the store before anything else
//     (dropping a torn tail record, tolerating records the store already
//     has — replay is idempotent), so a crash anywhere between eviction
//     and destage loses nothing.
//
// File format: an 8-byte header ("SHJL" + version), then fixed-size
// records: crc32(4) kind(1) fingerprint(20) value(8). The CRC covers
// everything after itself; replay stops at the first record that fails it
// (a torn append) and truncates the tail.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"shhc/internal/fingerprint"
	"shhc/internal/hashdb"
)

const (
	journalMagic   = "SHJL"
	journalVersion = 1
	journalHdrSize = 8

	// journal record: crc32(4) kind(1) fp(20) val(8).
	journalRecSize = 4 + 1 + fingerprint.Size + 8

	// journalHeldBits sizes the filter behind mayHold: one bit per
	// fingerprint hash, 128 KiB. At the 4 MiB checkpoint bound the journal
	// holds ~127k records, which fill an eighth of it.
	journalHeldBits = 1 << 20

	journalPut    = byte(1)
	journalDelete = byte(2)
)

// jrec is one decoded journal record.
type jrec struct {
	kind byte
	fp   fingerprint.Fingerprint
	val  Value
}

// journalFile is the journal's file: an *os.File, or in tests a wrapper
// that logs its writes and syncs.
type journalFile interface {
	io.ReaderAt
	io.WriterAt
	Stat() (os.FileInfo, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// journal is the destage write-ahead log plus its group-commit syncer.
type journal struct {
	path string
	f    journalFile

	mu   sync.Mutex
	cond sync.Cond // broadcast when durable advances, err is set, or buf fills

	// buf holds encoded records not yet handed to the syncer's write.
	buf []byte
	// appended and durable are record LSNs: appended counts records ever
	// accepted, durable counts records whose fsync completed (or whose
	// truncation proved them redundant).
	appended uint64
	durable  uint64
	// off is the file offset the next write lands at.
	off int64
	// syncing marks a write+fsync in flight outside the lock; truncate
	// waits it out so the two never race on off.
	syncing bool
	err     error
	closed  bool
	done    chan struct{}

	// held has a bit set for every fingerprint with a record appended since
	// the last truncation (a one-hash Bloom filter: no false negatives).
	// Written under mu, read lock-free by mayHold.
	held [journalHeldBits / 64]atomic.Uint64
}

// openJournal opens (or creates) the journal at path, returning the valid
// records already in it and the number of torn tail bytes dropped. A file
// that does not start with the journal header is treated as fully torn and
// reinitialized.
func openJournal(path string) (*journal, []jrec, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: journal %s: %w", path, err)
	}
	return newJournal(path, f)
}

// newJournal is openJournal over an open file, which it owns from then on.
func newJournal(path string, f journalFile) (*journal, []jrec, int64, error) {
	j := &journal{path: path, f: f, done: make(chan struct{})}
	j.cond.L = &j.mu

	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("core: journal %s: %w", path, err)
	}
	size := fi.Size()

	var recs []jrec
	var torn int64
	if size == 0 {
		var hdr [journalHdrSize]byte
		copy(hdr[0:4], journalMagic)
		binary.BigEndian.PutUint32(hdr[4:8], journalVersion)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("core: journal %s: write header: %w", path, err)
		}
		j.off = journalHdrSize
	} else {
		var hdr [journalHdrSize]byte
		if _, err := f.ReadAt(hdr[:], 0); err != nil && !errors.Is(err, io.EOF) {
			f.Close()
			return nil, nil, 0, fmt.Errorf("core: journal %s: read header: %w", path, err)
		}
		if string(hdr[0:4]) != journalMagic || binary.BigEndian.Uint32(hdr[4:8]) != journalVersion {
			// Torn during its own creation (or not a journal): nothing in
			// it can be trusted; start over.
			torn = size
			recs = nil
			copy(hdr[0:4], journalMagic)
			binary.BigEndian.PutUint32(hdr[4:8], journalVersion)
			if err := f.Truncate(0); err == nil {
				_, err = f.WriteAt(hdr[:], 0)
			}
			if err != nil {
				f.Close()
				return nil, nil, 0, fmt.Errorf("core: journal %s: reinit: %w", path, err)
			}
			j.off = journalHdrSize
		} else {
			recs, j.off, torn, err = readJournalRecords(f, size)
			if err != nil {
				f.Close()
				return nil, nil, 0, fmt.Errorf("core: journal %s: %w", path, err)
			}
			if torn > 0 {
				// Drop the torn tail so later appends start on a clean
				// record boundary.
				if err := f.Truncate(j.off); err != nil {
					f.Close()
					return nil, nil, 0, fmt.Errorf("core: journal %s: truncate torn tail: %w", path, err)
				}
			}
		}
	}
	go j.loop()
	return j, recs, torn, nil
}

// readJournalRecords parses records until EOF or the first record that is
// short or fails its CRC (a torn append), returning the valid records, the
// offset of the first invalid byte, and how many tail bytes are torn.
func readJournalRecords(f io.ReaderAt, size int64) ([]jrec, int64, int64, error) {
	body := make([]byte, size-journalHdrSize)
	if _, err := f.ReadAt(body, journalHdrSize); err != nil && !errors.Is(err, io.EOF) {
		return nil, 0, 0, fmt.Errorf("read records: %w", err)
	}
	var recs []jrec
	off := 0
	for off+journalRecSize <= len(body) {
		rec := body[off : off+journalRecSize]
		if crc32.ChecksumIEEE(rec[4:]) != binary.BigEndian.Uint32(rec[0:4]) {
			break
		}
		r := jrec{kind: rec[4], fp: fingerprint.FromBytes(rec[5:]), val: Value(binary.BigEndian.Uint64(rec[5+fingerprint.Size:]))}
		if r.kind != journalPut && r.kind != journalDelete {
			break
		}
		recs = append(recs, r)
		off += journalRecSize
	}
	valid := int64(journalHdrSize + off)
	return recs, valid, size - valid, nil
}

// append encodes one record into the commit buffer and returns its LSN to
// pass to wait. It never blocks on I/O. Callers that need per-fingerprint
// record order must serialize appends for that fingerprint externally (the
// destager appends under the fingerprint's index-shard lock). A dead
// journal absorbs appends and returns 0 (wait(0) reports the error).
func (j *journal) append(kind byte, fp fingerprint.Fingerprint, val Value) uint64 {
	var rec [journalRecSize]byte
	rec[4] = kind
	fp.Put(rec[5:])
	binary.BigEndian.PutUint64(rec[5+fingerprint.Size:], uint64(val))
	binary.BigEndian.PutUint32(rec[0:4], crc32.ChecksumIEEE(rec[4:]))

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.closed {
		return 0
	}
	j.buf = append(j.buf, rec[:]...)
	j.appended++
	lsn := j.appended
	w, bit := heldBit(fp)
	j.held[w].Store(j.held[w].Load() | bit)
	j.cond.Broadcast() // wake the syncer
	return lsn
}

func heldBit(fp fingerprint.Fingerprint) (word int, bit uint64) {
	h := fp.Bucket64() % journalHeldBits
	return int(h / 64), 1 << (h % 64)
}

// mayHold reports whether the journal may hold a record for fp; false is
// exact. The answer covers every append that happened before the call: a
// caller that must also order later appends does so with its own locks (a
// record for fp is only ever appended under fp's node-stripe or
// cache-stripe lock).
func (j *journal) mayHold(fp fingerprint.Fingerprint) bool {
	w, bit := heldBit(fp)
	return j.held[w].Load()&bit != 0
}

// wait blocks until the record at lsn is durable (fsynced, or proven
// redundant by a truncation), returning the journal's terminal error if it
// died first.
func (j *journal) wait(lsn uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.durable < lsn && j.err == nil && !j.closed {
		j.cond.Wait()
	}
	if j.err != nil {
		return j.err
	}
	if j.durable < lsn {
		return errors.New("core: journal closed before record became durable")
	}
	return nil
}

// cover readies a store write of pairs that bypasses the journal: a pair
// the journal may hold an older record for — a value evicted earlier, or a
// Remove's tombstone — gets a fresh record, durable before cover returns,
// so replay never puts the older one back over the write. The caller keeps
// Remove, whose tombstone would be newer, off those fingerprints until the
// write lands.
func (j *journal) cover(pairs []hashdb.Pair) error {
	var lsn uint64
	held := false
	for _, p := range pairs {
		if j.mayHold(p.FP) {
			lsn, held = j.append(journalPut, p.FP, p.Val), true
		}
	}
	if !held {
		return nil
	}
	return j.wait(lsn)
}

// appendedLSN returns the LSN of the newest accepted record.
func (j *journal) appendedLSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// size reports the journal's size in bytes once the commit buffer is
// written: the file's size, header included, so it compares directly with
// journalCheckpointBytes and with what a stat of the file shows.
func (j *journal) size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.off + int64(len(j.buf))
}

// truncateIf empties the journal if pred still holds under the journal
// lock (with no write+fsync in flight). Callers prove, via pred, that
// every record currently in the journal describes state the store has
// already made durable; the pending commit buffer is dropped and its
// waiters released, since a truncation makes their records redundant.
func (j *journal) truncateIf(pred func() bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing {
		j.cond.Wait()
	}
	if j.err != nil || j.closed {
		return j.err
	}
	if pred != nil && !pred() {
		return nil
	}
	if j.off == journalHdrSize && len(j.buf) == 0 {
		return nil
	}
	if err := j.f.Truncate(journalHdrSize); err != nil {
		j.fail(fmt.Errorf("core: journal %s: truncate: %w", j.path, err))
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.fail(fmt.Errorf("core: journal %s: sync truncate: %w", j.path, err))
		return j.err
	}
	j.off = journalHdrSize
	j.buf = j.buf[:0]
	j.durable = j.appended
	for i := range j.held {
		j.held[i].Store(0)
	}
	j.cond.Broadcast()
	return nil
}

// fail records the journal's terminal error and releases every waiter.
// Caller holds j.mu.
func (j *journal) fail(err error) {
	if j.err == nil {
		j.err = err
	}
	j.cond.Broadcast()
}

// loop is the group-commit syncer: it writes and fsyncs whatever
// accumulated in the commit buffer while the previous fsync was in flight,
// then publishes the new durable LSN. One fsync covers every record that
// joined the batch.
func (j *journal) loop() {
	defer close(j.done)
	j.mu.Lock()
	for {
		for len(j.buf) == 0 && !j.closed && j.err == nil {
			j.cond.Wait()
		}
		if j.err != nil || (j.closed && len(j.buf) == 0) {
			j.mu.Unlock()
			return
		}
		batch := j.buf
		j.buf = nil
		target := j.appended
		off := j.off
		j.off += int64(len(batch))
		j.syncing = true
		j.mu.Unlock()

		_, werr := j.f.WriteAt(batch, off)
		if werr == nil {
			werr = j.f.Sync()
		}

		j.mu.Lock()
		j.syncing = false
		if werr != nil {
			j.fail(fmt.Errorf("core: journal %s: commit: %w", j.path, werr))
			j.mu.Unlock()
			return
		}
		if target > j.durable {
			j.durable = target
		}
		j.cond.Broadcast()
	}
}

// close flushes any buffered records, stops the syncer, and closes the
// file.
func (j *journal) close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.cond.Broadcast()
	j.mu.Unlock()
	<-j.done
	err := j.err
	if cerr := j.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("core: journal %s: close: %w", j.path, cerr)
	}
	return err
}

// RecoveryStats describes what a node repaired when it opened: destage
// journal replay plus the store's own open-time recovery (see
// hashdb.RecoveryStats). All zero for a node that opened cleanly or runs
// without a journal.
type RecoveryStats struct {
	// JournalReplayed counts journal records replayed into the store at
	// open (entries the previous process evicted but never destaged).
	JournalReplayed uint64
	// JournalTornBytes counts bytes dropped from a torn journal tail.
	JournalTornBytes uint64
	// Store summarizes the hash table's own recovery pass (zero for
	// stores without one, e.g. the in-RAM store).
	Store hashdb.RecoveryStats
}

// journalLSN snapshots the journal's append cursor (0 without a journal).
// Pair with afterDirtyInsert around a write-back cache insert: any eviction
// the insert triggers appends its record between the two.
func (n *Node) journalLSN() uint64 {
	if n.jnl == nil {
		return 0
	}
	return n.jnl.appendedLSN()
}

// afterDirtyInsert finishes a write-back cache insert, with no lock held.
// It wakes the destager if the insert made a wave's worth of entries
// pending, and it is the durability barrier of the evictions the insert
// displaced: it blocks until every journal record appended since the
// paired journalLSN snapshot is durable. Nothing was appended when every
// victim was clean — the steady state clean-ahead maintains — and then it
// returns at once. Running without a cache-stripe lock is the point:
// evictions from every cache stripe append without waiting, concurrent
// barriers share one group-commit fsync, and only the operations that
// actually evicted a dirty entry pay for it. A dead journal's error is
// parked for the usual delivery path.
func (n *Node) afterDirtyInsert(before uint64) {
	if n.dst != nil {
		n.dst.nudge()
	}
	if n.jnl == nil {
		return
	}
	after := n.jnl.appendedLSN()
	if after == before {
		return
	}
	if err := n.jnl.wait(after); err != nil {
		n.recordDestageErr(fmt.Errorf("core: node %s: destage journal: %w", n.id, err))
	}
}

// storeRecoveryReporter is the optional store surface that exposes an
// open-time recovery summary (*hashdb.DB implements it).
type storeRecoveryReporter interface {
	Recovery() hashdb.RecoveryStats
}

// replayJournal applies the journal's records to the store. Records fold
// to one final state per fingerprint first — the last record wins, exactly
// as buffer coalescing ordered the live run — then the surviving puts go
// through one page-coalesced PutBatch and the surviving tombstones through
// Delete. Replay is idempotent: re-putting an
// entry the store already holds is an update to the same value.
func (n *Node) replayJournal(recs []jrec) error {
	type final struct {
		deleted bool
		val     Value
	}
	last := make(map[fingerprint.Fingerprint]*final, len(recs))
	order := make([]fingerprint.Fingerprint, 0, len(recs))
	for _, r := range recs {
		f, ok := last[r.fp]
		if !ok {
			f = &final{}
			last[r.fp] = f
			order = append(order, r.fp)
		}
		f.deleted = r.kind == journalDelete
		f.val = r.val
	}
	var puts []hashdb.Pair
	var dels []fingerprint.Fingerprint
	for _, fp := range order {
		if f := last[fp]; f.deleted {
			dels = append(dels, fp)
		} else {
			puts = append(puts, hashdb.Pair{FP: fp, Val: f.val})
		}
	}

	if len(puts) > 0 {
		if _, _, err := n.store.PutBatch(context.Background(), puts); err != nil {
			return fmt.Errorf("core: node %s: journal replay: %w", n.id, err)
		}
	}
	for _, fp := range dels {
		if _, err := n.store.Delete(fp); err != nil {
			return fmt.Errorf("core: node %s: journal replay delete %s: %w", n.id, fp.Short(), err)
		}
	}
	return nil
}
