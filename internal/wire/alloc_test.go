package wire

import (
	"io"
	"testing"

	"shhc/internal/fingerprint"
)

// Zero-allocation pins for the wire hot path. These are the regression
// fences behind the zero-copy rework: an accidental fmt.Sprintf, interface
// boxing, or slice escape on any of these paths fails the suite, not just
// a benchmark chart.

func allocFP(i uint64) fingerprint.Fingerprint { return fingerprint.FromUint64(i) }

func TestAllocAppendPair(t *testing.T) {
	buf := make([]byte, 0, 64)
	p := PairPayload{FP: allocFP(7), Val: 42}
	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendPair(buf[:0], p)
	})
	if allocs != 0 {
		t.Fatalf("AppendPair allocates %v/op into a reused buffer; want 0", allocs)
	}
}

func TestAllocAppendBatch(t *testing.T) {
	pairs := make([]PairPayload, 64)
	for i := range pairs {
		pairs[i] = PairPayload{FP: allocFP(uint64(i)), Val: uint64(i)}
	}
	buf := make([]byte, 0, 4+len(pairs)*pairSize)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = appendBatch(buf[:0], pairs)
	})
	if allocs != 0 {
		t.Fatalf("a batch of AppendPair allocates %v/op into a reused buffer; want 0", allocs)
	}
}

func TestAllocDecodeResult(t *testing.T) {
	payload := AppendResult(nil, ResultPayload{Exists: true, Source: 2, Val: 99})
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := DecodeResult(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeResult allocates %v/op; want 0", allocs)
	}
}

// TestAllocBatchDecodeInPlace: BatchCount/PairAt and BatchResultCount/
// ResultAt let rpc decode straight into its own types; the walk itself
// must allocate nothing.
func TestAllocBatchDecodeInPlace(t *testing.T) {
	pairs := make([]PairPayload, 64)
	results := make([]ResultPayload, 64)
	for i := range pairs {
		pairs[i] = PairPayload{FP: allocFP(uint64(i)), Val: uint64(i) + 1}
		results[i] = ResultPayload{Exists: i%2 == 0, Source: 2, Val: uint64(i) + 1}
	}
	batch, answer := appendBatch(nil, pairs), appendBatchResult(nil, results)
	allocs := testing.AllocsPerRun(1000, func() {
		n, err := BatchCount(batch)
		if err != nil || n != len(pairs) {
			t.Fatal(n, err)
		}
		for i := 0; i < n; i++ {
			if PairAt(batch, i) != pairs[i] {
				t.Fatalf("pair %d", i)
			}
		}
		n, err = BatchResultCount(answer)
		if err != nil || n != len(results) {
			t.Fatal(n, err)
		}
		for i := 0; i < n; i++ {
			if ResultAt(answer, i) != results[i] {
				t.Fatalf("result %d", i)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("in-place batch decode allocates %v/op; want 0", allocs)
	}
}

func TestAllocGetPutBuf(t *testing.T) {
	// Steady-state pool round-trips must not allocate: the pool stores
	// *[]byte precisely so Put does not box a slice header.
	allocs := testing.AllocsPerRun(1000, func() {
		bp := GetBuf(512)
		*bp = AppendPair((*bp)[:0], PairPayload{FP: allocFP(1), Val: 2})
		PutBuf(bp)
	})
	if allocs != 0 {
		t.Fatalf("GetBuf/Append/PutBuf allocates %v/op at steady state; want 0", allocs)
	}
}

func TestAllocFrameWriterWriteFrame(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	payload := AppendResult(nil, ResultPayload{Exists: true, Source: 1, Val: 7})
	f := Frame{Type: TypeResult, ID: 9, Payload: payload}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FrameWriter.WriteFrame allocates %v/op; want 0", allocs)
	}
}
