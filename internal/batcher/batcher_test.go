package batcher

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
)

func fp(i uint64) fingerprint.Fingerprint { return fingerprint.FromUint64(i) }

// echo answers every pair with Exists=false and Value=pair value.
func echo(pairs []core.Pair) []core.LookupResult {
	out := make([]core.LookupResult, len(pairs))
	for i, p := range pairs {
		out[i] = core.LookupResult{Exists: false, Value: p.Val, Source: core.SourceNew}
	}
	return out
}

// flight is one executor call a test holds open.
type flight struct {
	pairs []core.Pair
	land  chan struct{} // close to let the flight return
}

// heldExec is an executor whose flights stay out until the test lands them,
// so the order of arrivals, dispatches and landings is the test's, not the
// clock's. Every flight echoes its pairs, or fails with err if set.
type heldExec struct {
	flights chan *flight  // every flight, as it starts
	all     chan struct{} // closed by openAll: nothing is held any more
	err     error
	landed  atomic.Int64 // flights that have returned
}

func newHeldExec() *heldExec {
	// Buffered above the number of flights any test here makes, so the
	// executor never blocks on a test that has stopped looking.
	return &heldExec{flights: make(chan *flight, 4096), all: make(chan struct{})}
}

func (h *heldExec) do(_ context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	f := &flight{pairs: append([]core.Pair(nil), pairs...), land: make(chan struct{})}
	h.flights <- f
	select {
	case <-f.land:
	case <-h.all:
	}
	defer h.landed.Add(1)
	if h.err != nil {
		return nil, h.err
	}
	return echo(pairs), nil
}

// next returns the next flight to start, failing the test if none does.
func (h *heldExec) next(t *testing.T) *flight {
	t.Helper()
	select {
	case f := <-h.flights:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no flight was dispatched")
		return nil
	}
}

func (h *heldExec) openAll() { close(h.all) }

// sizes drains the flights started so far into their batch sizes.
func (h *heldExec) sizes() []int {
	var out []int
	for {
		select {
		case f := <-h.flights:
			out = append(out, len(f.pairs))
		default:
			return out
		}
	}
}

type reply struct {
	rs  []core.LookupResult
	err error
}

// submit submits keys from, from+1, … (value = key) on its own goroutine.
func submit(ctx context.Context, b *Batcher, from, n int) <-chan reply {
	pairs := make([]core.Pair, n)
	for i := range pairs {
		pairs[i] = core.Pair{FP: fp(uint64(from + i)), Val: core.Value(from + i)}
	}
	out := make(chan reply, 1)
	go func() {
		rs, err := b.BatchLookupOrInsert(ctx, pairs)
		out <- reply{rs, err}
	}()
	return out
}

// await returns c's reply, failing the test if the call hangs.
func await(t *testing.T, c <-chan reply) reply {
	t.Helper()
	select {
	case r := <-c:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("call never returned")
		return reply{}
	}
}

// wantEcho checks a reply to submit(…, from, n).
func wantEcho(t *testing.T, r reply, from, n int) {
	t.Helper()
	if r.err != nil || len(r.rs) != n {
		t.Fatalf("call %d+%d: %d results, err %v", from, n, len(r.rs), r.err)
	}
	for i, res := range r.rs {
		if res.Value != core.Value(from+i) {
			t.Fatalf("call %d+%d: result %d carries value %d (crossed or out of input order)", from, n, i, res.Value)
		}
	}
}

// queued waits until the batcher has accepted n queries in all.
func queued(t *testing.T, b *Batcher, n uint64) {
	t.Helper()
	waitFor(t, func() bool { return b.Stats().Queries == n })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// leadFlight puts one single-key call (key 0) in flight and returns it held:
// whatever the test submits next queues behind it.
func leadFlight(t *testing.T, h *heldExec, b *Batcher) (*flight, <-chan reply) {
	t.Helper()
	c := submit(context.Background(), b, 0, 1)
	return h.next(t), c
}

// TestIdleCallDispatchesImmediately: with no flight outstanding nothing
// waits — a lone plan goes out whole, at once, however long MaxDelay is.
func TestIdleCallDispatchesImmediately(t *testing.T) {
	h := newHeldExec()
	h.openAll()
	b := New(h.do, Config{MaxBatch: 64, MaxDelay: time.Hour})
	defer b.Close()

	const k = 8
	wantEcho(t, await(t, submit(context.Background(), b, 100, k)), 100, k)
	if sizes := h.sizes(); len(sizes) != 1 || sizes[0] != k {
		t.Fatalf("batch sizes = %v, want [%d]", sizes, k)
	}
	if st := b.Stats(); st.Queries != k || st.Batches != 1 {
		t.Fatalf("Stats = %+v, want %d queries in 1 batch", st, k)
	}
}

// TestCallsBehindAFlightShareTheNextBatch: what arrives during a round trip
// is the next batch, dispatched when the flight lands.
func TestCallsBehindAFlightShareTheNextBatch(t *testing.T) {
	h := newHeldExec()
	b := New(h.do, Config{MaxBatch: 1000, MaxDelay: time.Hour})
	defer b.Close()
	defer h.openAll()

	f1, lead := leadFlight(t, h, b)
	const n = 16
	calls := make([]<-chan reply, n)
	for i := range calls {
		calls[i] = submit(context.Background(), b, 1+i, 1)
	}
	queued(t, b, 1+n)
	if st := b.Stats(); st.Batches != 1 {
		t.Fatalf("%d batches dispatched while flight 1 was out, want 1", st.Batches)
	}
	close(f1.land)
	wantEcho(t, await(t, lead), 0, 1)
	f2 := h.next(t)
	if len(f2.pairs) != n {
		t.Fatalf("flight 2 carries %d queries, want all %d that queued behind flight 1", len(f2.pairs), n)
	}
	close(f2.land)
	for i, c := range calls {
		wantEcho(t, await(t, c), 1+i, 1)
	}
	if st := b.Stats(); st.Batches != 2 {
		t.Fatalf("Batches = %d, want 2", st.Batches)
	}
}

// TestFlushOnMaxBatch: behind a held flight — so the idle rule cannot be
// what fires — the queue goes out when it reaches MaxBatch and not before.
func TestFlushOnMaxBatch(t *testing.T) {
	h := newHeldExec()
	b := New(h.do, Config{MaxBatch: 4, MaxDelay: time.Hour})
	defer b.Close()
	defer h.openAll()

	f1, lead := leadFlight(t, h, b)
	calls := make([]<-chan reply, 4)
	for i := 0; i < 3; i++ {
		calls[i] = submit(context.Background(), b, 1+i, 1)
	}
	queued(t, b, 4)
	if st := b.Stats(); st.Batches != 1 {
		t.Fatalf("queue of 3 dispatched below MaxBatch (Batches=%d)", st.Batches)
	}
	calls[3] = submit(context.Background(), b, 4, 1)
	f2 := h.next(t)
	if len(f2.pairs) != 4 {
		t.Fatalf("size-triggered batch = %d, want 4", len(f2.pairs))
	}
	close(f2.land)
	for i, c := range calls {
		wantEcho(t, await(t, c), 1+i, 1)
	}
	close(f1.land)
	wantEcho(t, await(t, lead), 0, 1)
}

// TestMaxBatchOverlapsAFlight: a full queue does not wait for the flight in
// progress — its batch goes out, lands and answers while that flight is
// still held — and exceeds MaxBatch by at most the call that filled it.
func TestMaxBatchOverlapsAFlight(t *testing.T) {
	h := newHeldExec()
	b := New(h.do, Config{MaxBatch: 4, MaxDelay: time.Hour})
	defer b.Close()
	defer h.openAll()

	f1, lead := leadFlight(t, h, b)
	three := submit(context.Background(), b, 10, 3)
	queued(t, b, 4)
	five := submit(context.Background(), b, 20, 5)
	f2 := h.next(t)
	if len(f2.pairs) != 8 {
		t.Fatalf("overlapping batch = %d queries, want 8 (both calls, whole)", len(f2.pairs))
	}
	close(f2.land)
	wantEcho(t, await(t, three), 10, 3)
	wantEcho(t, await(t, five), 20, 5)
	select {
	case <-lead:
		t.Fatal("flight 1 landed; the overlap was never exercised")
	default:
	}
	close(f1.land)
	wantEcho(t, await(t, lead), 0, 1)
}

// TestMaxDelayBoundsWaitBehindStuckFlight: MaxDelay is the bound a stalled
// node cannot exceed — a call queued behind a flight that never lands is
// dispatched once it has waited MaxDelay, and not earlier.
func TestMaxDelayBoundsWaitBehindStuckFlight(t *testing.T) {
	const delay = 20 * time.Millisecond
	h := newHeldExec()
	b := New(h.do, Config{MaxBatch: 1000, MaxDelay: delay})
	defer b.Close()
	defer h.openAll()

	_, lead := leadFlight(t, h, b) // never landed before the deferred openAll
	start := time.Now()
	c := submit(context.Background(), b, 1, 1)
	f2 := h.next(t)
	if waited := time.Since(start); waited < delay {
		t.Fatalf("queued call dispatched after %v, before MaxDelay (%v) and with flight 1 still out", waited, delay)
	}
	close(f2.land)
	wantEcho(t, await(t, c), 1, 1)
	select {
	case <-lead:
		t.Fatal("the stuck flight landed; MaxDelay was not what dispatched the queue")
	default:
	}
}

// TestStaleTimerDoesNotFlushYoungerBatch simulates a MaxDelay timer that
// fired for a queue already dispatched by MaxBatch: when its callback
// finally runs, a younger queue is pending, and the stale callback must
// leave it alone (its own MaxDelay has not elapsed).
func TestStaleTimerDoesNotFlushYoungerBatch(t *testing.T) {
	h := newHeldExec()
	b := New(h.do, Config{MaxBatch: 2, MaxDelay: time.Hour})
	defer h.openAll()

	f1, _ := leadFlight(t, h, b)
	submit(context.Background(), b, 1, 1) // first queued call arms the timer
	queued(t, b, 2)
	b.mu.Lock()
	staleGen := b.timerGen
	b.mu.Unlock()
	submit(context.Background(), b, 2, 1) // reaches MaxBatch: dispatch, invalidating staleGen
	close(h.next(t).land)
	waitFor(t, func() bool { // landed with nothing behind it: only flight 1 is out
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.flights == 1
	})

	// A younger queue with an hour of delay budget.
	young := submit(context.Background(), b, 3, 1)
	queued(t, b, 4)

	// The stale callback finally runs: it must not dispatch.
	b.flushTimer(staleGen)
	b.mu.Lock()
	pending := len(b.queue.calls)
	b.mu.Unlock()
	if st := b.Stats(); pending != 1 || st.Batches != 2 {
		t.Fatalf("stale timer dispatched the younger queue (pending=%d, batches=%d)", pending, st.Batches)
	}

	close(f1.land) // the landing flight takes the younger queue with it
	close(h.next(t).land)
	wantEcho(t, await(t, young), 3, 1)
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := b.Stats(); st.Batches != 3 {
		t.Fatalf("final batch count = %d, want 3 (lead + MaxBatch + landing)", st.Batches)
	}
}

// TestChainedFlightsDrainOnClose: Close while a chained flight is out with
// a queue behind it dispatches that queue, waits for both — the chained
// flight runs on the goroutine of the one that landed — and rejects the
// rest: every caller gets a result or ErrClosed, none hangs.
func TestChainedFlightsDrainOnClose(t *testing.T) {
	h := newHeldExec()
	b := New(h.do, Config{MaxBatch: 1000, MaxDelay: time.Hour})

	f1, lead := leadFlight(t, h, b)
	second := submit(context.Background(), b, 1, 3)
	queued(t, b, 4)
	close(f1.land)
	wantEcho(t, await(t, lead), 0, 1)
	f2 := h.next(t) // chained behind flight 1, held
	third := submit(context.Background(), b, 4, 2)
	queued(t, b, 6)

	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	f3 := h.next(t) // Close dispatched the queue without waiting for flight 2
	if len(f3.pairs) != 2 {
		t.Fatalf("Close dispatched %d queries, want the 2 queued", len(f3.pairs))
	}
	if r := await(t, submit(context.Background(), b, 9, 1)); !errors.Is(r.err, ErrClosed) {
		t.Fatalf("call after Close = %v, want ErrClosed", r.err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with two flights still out", err)
	default:
	}
	close(f3.land)
	close(f2.land)
	wantEcho(t, await(t, second), 1, 3)
	wantEcho(t, await(t, third), 4, 2)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if n := h.landed.Load(); n != 3 {
		t.Fatalf("Close returned with %d of 3 flights landed", n)
	}
}

// TestEmptyCall: nothing to ask is answered without a batch.
func TestEmptyCall(t *testing.T) {
	h := newHeldExec()
	h.openAll()
	b := New(h.do, Config{})
	rs, err := b.BatchLookupOrInsert(context.Background(), nil)
	if err != nil || len(rs) != 0 {
		t.Fatalf("empty call = %v, %v; want no results, no error", rs, err)
	}
	if st := b.Stats(); st != (Stats{}) || len(h.sizes()) != 0 {
		t.Fatalf("empty call was enqueued: %+v", st)
	}
	b.Close()
	if _, err := b.BatchLookupOrInsert(context.Background(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("empty call after Close = %v, want ErrClosed", err)
	}
}

// TestResultSubslicesDoNotAlias: batch-mates receive windows of one result
// slice; a caller appending to its window must not write a neighbour's.
func TestResultSubslicesDoNotAlias(t *testing.T) {
	h := newHeldExec()
	b := New(h.do, Config{MaxBatch: 1000, MaxDelay: time.Hour})
	defer b.Close()
	defer h.openAll()

	f1, _ := leadFlight(t, h, b)
	first := submit(context.Background(), b, 1, 2)
	queued(t, b, 3)
	second := submit(context.Background(), b, 3, 2)
	queued(t, b, 5)
	close(f1.land)
	close(h.next(t).land)
	r1, r2 := await(t, first), await(t, second)
	if len(r1.rs) != cap(r1.rs) {
		t.Fatalf("result window has len %d, cap %d: an append would land in the next call's results", len(r1.rs), cap(r1.rs))
	}
	r1.rs = append(r1.rs, core.LookupResult{Value: 999})
	wantEcho(t, r2, 3, 2)
}

func TestResultsRouteToCorrectWaiters(t *testing.T) {
	h := newHeldExec()
	b := New(h.do, Config{MaxBatch: 64, MaxDelay: time.Millisecond})
	defer b.Close()

	// Everything queues behind one held flight, so aggregation comes from
	// the flight and not from how the scheduler interleaves 512 goroutines.
	_, lead := leadFlight(t, h, b)
	const n = 512
	calls := make([]<-chan reply, n)
	for i := range calls {
		calls[i] = submit(context.Background(), b, 1+i, 1)
	}
	queued(t, b, 1+n)
	h.openAll()
	wantEcho(t, await(t, lead), 0, 1)
	for i, c := range calls {
		wantEcho(t, await(t, c), 1+i, 1)
	}
	st := b.Stats()
	if st.Queries != 1+n {
		t.Fatalf("Queries = %d, want %d", st.Queries, 1+n)
	}
	if st.Queries < 2*st.Batches {
		t.Fatalf("%d queries in %d batches; aggregation did not happen", st.Queries, st.Batches)
	}
}

// TestExecutorErrorPropagates: the executor's error reaches every call of
// the batch.
func TestExecutorErrorPropagates(t *testing.T) {
	wantErr := errors.New("node down")
	h := newHeldExec()
	h.err = wantErr
	b := New(h.do, Config{MaxBatch: 2, MaxDelay: time.Hour})
	defer b.Close()

	f1, lead := leadFlight(t, h, b)
	one := submit(context.Background(), b, 1, 1)
	queued(t, b, 2)
	three := submit(context.Background(), b, 2, 3) // fills the batch
	if f2 := h.next(t); len(f2.pairs) != 4 {
		t.Fatalf("second batch = %d queries, want both calls (4)", len(f2.pairs))
	}
	h.openAll()
	close(f1.land)
	for _, c := range []<-chan reply{lead, one, three} {
		if r := await(t, c); !errors.Is(r.err, wantErr) {
			t.Fatalf("err = %v, want %v", r.err, wantErr)
		}
	}
}

func TestWrongResultCountIsError(t *testing.T) {
	bad := func(_ context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
		return make([]core.LookupResult, len(pairs)+1), nil
	}
	b := New(bad, Config{MaxBatch: 1, MaxDelay: time.Millisecond})
	defer b.Close()
	if _, err := b.LookupOrInsert(context.Background(), fp(1), 1); err == nil {
		t.Fatal("mismatched result count not reported")
	}
}

// TestCloseFlushesPartialBatch: a queue below MaxBatch, behind a flight that
// has not landed, is dispatched by Close itself.
func TestCloseFlushesPartialBatch(t *testing.T) {
	h := newHeldExec()
	b := New(h.do, Config{MaxBatch: 1000, MaxDelay: time.Hour})

	leadFlight(t, h, b)
	done := submit(context.Background(), b, 1, 1)
	queued(t, b, 2)
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	if f := h.next(t); len(f.pairs) != 1 {
		t.Fatalf("Close dispatched %d queries, want the 1 queued", len(f.pairs))
	}
	h.openAll()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if r := await(t, done); r.err != nil {
		t.Fatalf("query stranded by Close: %v", r.err)
	}
	if err := b.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
	if _, err := b.LookupOrInsert(context.Background(), fp(2), 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close query = %v, want ErrClosed", err)
	}
}

func TestDelayBoundsLatency(t *testing.T) {
	// A lone query must not wait for MaxBatch companions.
	b := New(func(_ context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
		return echo(pairs), nil
	}, Config{MaxBatch: 1 << 20, MaxDelay: 3 * time.Millisecond})
	defer b.Close()
	start := time.Now()
	if _, err := b.LookupOrInsert(context.Background(), fp(1), 1); err != nil {
		t.Fatalf("LookupOrInsert: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("lone query took %v; delay flush broken", elapsed)
	}
}

// TestCloseNeverDropsQueries hammers LookupOrInsert from many goroutines
// while Close runs in the middle: every query must either be flushed
// through the executor (and get its result) or be rejected with ErrClosed.
// A query that hangs or vanishes fails the test; executed vs. answered
// accounting must agree exactly.
func TestCloseNeverDropsQueries(t *testing.T) {
	var executed atomic.Int64
	b := New(func(_ context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
		executed.Add(int64(len(pairs)))
		out := make([]core.LookupResult, len(pairs))
		for i := range out {
			out[i] = core.LookupResult{Exists: true, Value: pairs[i].Val}
		}
		return out, nil
	}, Config{MaxBatch: 8, MaxDelay: 100 * time.Microsecond})

	const goroutines = 8
	var (
		wg       sync.WaitGroup
		answered atomic.Int64
		rejected atomic.Int64
	)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				key := uint64(g*1_000_000 + i)
				res, err := b.LookupOrInsert(context.Background(), fingerprint.FromUint64(key), core.Value(key))
				if errors.Is(err, ErrClosed) {
					rejected.Add(1)
					return
				}
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				if res.Value != core.Value(key) {
					t.Errorf("goroutine %d query %d: value %d, want %d (crossed results)", g, i, res.Value, key)
					return
				}
				answered.Add(1)
			}
		}(g)
	}
	close(start)
	// Let the enqueue / land / chain machinery heat up before closing.
	waitFor(t, func() bool { return answered.Load() >= 2000 || t.Failed() })
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if got, want := executed.Load(), answered.Load(); got != want {
		t.Fatalf("executor processed %d queries, callers got %d answers: %d dropped or duplicated", got, want, want-got)
	}
	if rejected.Load() != goroutines {
		t.Fatalf("%d goroutines saw ErrClosed, want all %d", rejected.Load(), goroutines)
	}
	if answered.Load() == 0 {
		t.Fatal("no query was answered before Close; the race window was never exercised")
	}
}

// TestEnqueueRacingCloseIsFlushedOrRejected pins the exact window the
// audit was about: a pair enqueued just as Close runs. Repeat the race
// many times; in every round the single in-flight query must resolve.
func TestEnqueueRacingCloseIsFlushedOrRejected(t *testing.T) {
	for round := 0; round < 200; round++ {
		var executed atomic.Int64
		b := New(func(_ context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
			executed.Add(int64(len(pairs)))
			return make([]core.LookupResult, len(pairs)), nil
		}, Config{MaxBatch: 64, MaxDelay: time.Hour})

		type outcome struct {
			err error
		}
		res := make(chan outcome, 1)
		go func() {
			_, err := b.LookupOrInsert(context.Background(), fingerprint.FromUint64(uint64(round)), 1)
			res <- outcome{err: err}
		}()
		b.Close()

		select {
		case out := <-res:
			if out.err == nil && executed.Load() != 1 {
				t.Fatalf("round %d: query answered but executor saw %d queries", round, executed.Load())
			}
			if out.err != nil && !errors.Is(out.err, ErrClosed) {
				t.Fatalf("round %d: unexpected error %v", round, out.err)
			}
			if out.err != nil && executed.Load() != 0 {
				t.Fatalf("round %d: query rejected with ErrClosed but executor still saw it", round)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: query neither flushed nor rejected (hung)", round)
		}
	}
}
