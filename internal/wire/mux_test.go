package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestMuxFrameV5RoundTripCarriesStream(t *testing.T) {
	in := Frame{Type: TypeBatch, ID: 42, Timeout: time.Second, Stream: 7, Payload: []byte{1, 2, 3}}
	var buf bytes.Buffer
	if err := writeFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if got, want := buf.Len(), 4+headerSize+3; got != want {
		t.Fatalf("frame is %d bytes, want %d", got, want)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if out.Type != in.Type || out.ID != in.ID || out.Timeout != in.Timeout || out.Stream != in.Stream || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}

func TestMuxFrameWriterV5(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	in := Frame{Type: TypeBatchResult, ID: 3, Stream: 11, Payload: []byte{9, 8}}
	if err := fw.WriteFrame(in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	out, bp, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	defer PutBuf(bp)
	if out.Stream != 11 || out.ID != 3 || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}

func TestMuxWindowUpdateRoundTrip(t *testing.T) {
	b := AppendWindowUpdate(nil, 123456)
	n, err := DecodeWindowUpdate(b)
	if err != nil {
		t.Fatalf("DecodeWindowUpdate: %v", err)
	}
	if n != 123456 {
		t.Fatalf("credit = %d, want 123456", n)
	}
}

// TestErrorCodeRoundTrip: a coded error round-trips, and the numbers
// protocol 8 used for its single-key verbs and NOT_OWNER are free: they
// print as unknown, so no table row or decoder can take them back.
func TestErrorCodeRoundTrip(t *testing.T) {
	in := ErrorPayload{Code: CodeVersionMismatch, Msg: "peer offers protocol 8"}
	out, err := DecodeErrorPayload(AppendError(nil, in))
	if err != nil {
		t.Fatalf("DecodeErrorPayload: %v", err)
	}
	if out != in {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if got := Code(4).String(); got != "code(4)" {
		t.Fatalf("Code(4).String() = %q, want code(4)", got)
	}
	for _, ty := range []Type{2, 7} {
		if got, want := ty.String(), fmt.Sprintf("type(%d)", ty); got != want {
			t.Fatalf("Type(%d).String() = %q, want %q", ty, got, want)
		}
	}
}

// muxConn collects flushed frames for inspection. Writes may split a
// frame across calls (net.Buffers degrades to one Write per vector on a
// plain io.Writer), so it buffers and parses complete frames greedily.
type muxConn struct {
	mu      sync.Mutex
	pending []byte
	frames  []Frame
	writes  int
}

func (c *muxConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	c.pending = append(c.pending, p...)
	for {
		if len(c.pending) < 4 {
			return len(p), nil
		}
		n := int(binary.BigEndian.Uint32(c.pending[:4]))
		if len(c.pending) < 4+n {
			return len(p), nil
		}
		f, err := readFrame(bytes.NewReader(c.pending[:4+n]))
		if err != nil {
			return 0, fmt.Errorf("muxConn: bad frame in flush: %w", err)
		}
		c.frames = append(c.frames, f)
		c.pending = c.pending[4+n:]
	}
}

func (c *muxConn) snapshot() []Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Frame(nil), c.frames...)
}

func waitFrames(t *testing.T, c *muxConn, n int) []Frame {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fs := c.snapshot()
		if len(fs) >= n {
			return fs
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d frames, have %d", n, len(fs))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxCreditStallIsolation is the unit-level pin of the tentpole
// property: a stream whose window is exhausted stops flushing, while
// another stream on the same writer keeps flowing.
func TestMuxCreditStallIsolation(t *testing.T) {
	conn := &muxConn{}
	m := NewMuxWriter(conn, 100) // tiny window: one 60-byte frame fits, two don't
	defer m.Close()

	payload := func() *[]byte {
		bp := GetBuf(60)
		*bp = (*bp)[:60]
		return bp
	}
	// Stream 1 enqueues three frames: the first flushes (window 100->40),
	// the rest stall at win<=0 after the second charges it negative...
	// window goes 100 -> 40 after first; 40>0 so second flushes too
	// (40-60 = -20); the third must stall.
	for i := uint64(0); i < 3; i++ {
		bp := payload()
		if err := m.Enqueue(Frame{Type: TypeBatchResult, ID: i, Stream: 1, Payload: *bp}, bp, nil); err != nil {
			t.Fatalf("enqueue stream 1: %v", err)
		}
	}
	// Stream 2 keeps flowing: its window is its own.
	for i := uint64(10); i < 13; i++ {
		bp := GetBuf(8)
		*bp = (*bp)[:8]
		if err := m.Enqueue(Frame{Type: TypeBatchResult, ID: i, Stream: 2, Payload: *bp}, bp, nil); err != nil {
			t.Fatalf("enqueue stream 2: %v", err)
		}
	}
	fs := waitFrames(t, conn, 5)
	count := map[uint32]int{}
	for _, f := range fs {
		count[f.Stream]++
	}
	if count[1] != 2 {
		t.Fatalf("stalled stream flushed %d frames, want 2 (credit-blocked after going negative)", count[1])
	}
	if count[2] != 3 {
		t.Fatalf("healthy stream flushed %d frames, want all 3", count[2])
	}
	st := m.Stats()
	if st.CreditStalls == 0 {
		t.Fatal("expected a recorded credit stall")
	}
	// Granting credit releases the blocked frame.
	m.Grant(1, 100)
	fs = waitFrames(t, conn, 6)
	count = map[uint32]int{}
	for _, f := range fs {
		count[f.Stream]++
	}
	if count[1] != 3 {
		t.Fatalf("after grant, stalled stream flushed %d frames, want 3", count[1])
	}
}

// TestMuxStreamOnFlushRunsAfterWrite pins the request-credit hook: the
// callback fires only once the frame's bytes hit the socket.
func TestMuxStreamOnFlushRunsAfterWrite(t *testing.T) {
	conn := &muxConn{}
	m := NewMuxWriter(conn, 0)
	defer m.Close()
	done := make(chan struct{})
	bp := GetBuf(4)
	*bp = (*bp)[:4]
	if err := m.Enqueue(Frame{Type: TypeBatchResult, ID: 1, Stream: 3, Payload: *bp}, bp, func() { close(done) }); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("onFlush never ran")
	}
	if len(conn.snapshot()) != 1 {
		t.Fatal("onFlush ran but frame not on the wire")
	}
}

// TestMuxStreamControlBypassesCredit pins that control frames flush even
// when every data stream is credit-blocked.
func TestMuxStreamControlBypassesCredit(t *testing.T) {
	conn := &muxConn{}
	m := NewMuxWriter(conn, 10)
	defer m.Close()
	big := GetBuf(64)
	*big = (*big)[:64]
	if err := m.Enqueue(Frame{Type: TypeBatchResult, ID: 1, Stream: 1, Payload: *big}, big, nil); err != nil {
		t.Fatal(err)
	}
	blocked := GetBuf(64)
	*blocked = (*blocked)[:64]
	if err := m.Enqueue(Frame{Type: TypeBatchResult, ID: 2, Stream: 1, Payload: *blocked}, blocked, nil); err != nil {
		t.Fatal(err)
	}
	wu := GetBuf(4)
	*wu = AppendWindowUpdate((*wu)[:0], 1024)
	if err := m.EnqueueControl(Frame{Type: TypeWindowUpdate, ID: 0, Stream: 1, Payload: *wu}, wu); err != nil {
		t.Fatal(err)
	}
	fs := waitFrames(t, conn, 2)
	var sawControl bool
	for _, f := range fs {
		if f.Type == TypeWindowUpdate {
			sawControl = true
		}
		if f.ID == 2 {
			t.Fatal("credit-blocked data frame flushed without a grant")
		}
	}
	if !sawControl {
		t.Fatal("control frame did not bypass the blocked stream")
	}
}

// TestMuxStreamInterleavingStorm is the -race storm: many streams, many
// producers, random credit grants and a consumer granting as it reads,
// all racing Close. Every frame that flushes must be well-formed and
// in-order within its stream.
func TestMuxStreamInterleavingStorm(t *testing.T) {
	conn := &muxConn{}
	m := NewMuxWriter(conn, 512)
	const (
		streams   = 32
		perStream = 50
	)
	var wg sync.WaitGroup
	for s := 1; s <= streams; s++ {
		wg.Add(1)
		go func(stream uint32) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(stream)))
			for i := 0; i < perStream; i++ {
				n := 1 + rng.Intn(100)
				bp := GetBuf(n)
				*bp = (*bp)[:n]
				(*bp)[0] = byte(i) // sequence marker for order checking
				f := Frame{Type: TypeBatchResult, ID: uint64(i), Stream: stream, Payload: *bp}
				if err := m.Enqueue(f, bp, nil); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
				if rng.Intn(4) == 0 {
					time.Sleep(time.Microsecond)
				}
			}
		}(uint32(s))
	}
	// Granter: keep all streams alive with random credit so the storm
	// terminates; grants for unknown/evicted streams must be harmless.
	stop := make(chan struct{})
	var granters sync.WaitGroup
	for g := 0; g < 4; g++ {
		granters.Add(1)
		go func(seed int64) {
			defer granters.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Grant(uint32(1+rng.Intn(streams+4)), 1+rng.Intn(256))
			}
		}(int64(g))
	}
	wg.Wait()
	want := streams * perStream
	deadline := time.Now().Add(10 * time.Second)
	for len(conn.snapshot()) < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	granters.Wait()
	m.Close()

	fs := conn.snapshot()
	if len(fs) != want {
		t.Fatalf("flushed %d frames, want %d", len(fs), want)
	}
	next := map[uint32]uint64{}
	for _, f := range fs {
		if f.ID != next[f.Stream] {
			t.Fatalf("stream %d: frame %d arrived, want %d (reordering within a stream)", f.Stream, f.ID, next[f.Stream])
		}
		if f.Payload[0] != byte(f.ID) {
			t.Fatalf("stream %d frame %d: payload marker %d", f.Stream, f.ID, f.Payload[0])
		}
		next[f.Stream]++
	}
	if st := m.Stats(); st.StreamsOpen != 0 {
		t.Fatalf("streams open after close = %d, want 0", st.StreamsOpen)
	}
}

// TestMuxStreamCloseReleasesQueued pins the ownership contract's shutdown
// arm: Close drains queued frames (releasing their pooled buffers) and
// later enqueues fail cleanly.
func TestMuxStreamCloseReleasesQueued(t *testing.T) {
	m := NewMuxWriter(io.Discard, 10)
	big := GetBuf(64)
	*big = (*big)[:64]
	_ = m.Enqueue(Frame{Type: TypeBatchResult, ID: 1, Stream: 1, Payload: *big}, big, nil)
	blocked := GetBuf(64)
	*blocked = (*blocked)[:64]
	_ = m.Enqueue(Frame{Type: TypeBatchResult, ID: 2, Stream: 1, Payload: *blocked}, blocked, nil)
	m.Close()
	bp := GetBuf(4)
	*bp = (*bp)[:4]
	if err := m.Enqueue(Frame{Type: TypeBatchResult, ID: 3, Stream: 1, Payload: *bp}, bp, nil); err == nil {
		t.Fatal("enqueue after close succeeded")
	}
	if st := m.Stats(); st.BytesQueued != 0 || st.StreamsOpen != 0 {
		t.Fatalf("after close: %+v, want empty", st)
	}
}
