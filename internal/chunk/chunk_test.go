package chunk

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"shhc/internal/fingerprint"
)

// All drains a chunker into a slice.
func All(c Chunker) ([]Chunk, error) {
	var chunks []Chunk
	for {
		ch, err := c.Next()
		if err == io.EOF {
			return chunks, nil
		}
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, ch)
	}
}

// Reassemble concatenates chunk payloads, verifying offsets are contiguous.
func Reassemble(chunks []Chunk) ([]byte, error) {
	var out []byte
	var expect int64
	for i, ch := range chunks {
		if ch.Offset != expect {
			return nil, fmt.Errorf("chunk: gap at chunk %d: offset %d, want %d", i, ch.Offset, expect)
		}
		out = append(out, ch.Data...)
		expect += int64(len(ch.Data))
	}
	return out, nil
}

func randomBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, n)
	rng.Read(buf)
	return buf
}

func TestFixedChunkerSizes(t *testing.T) {
	data := randomBytes(10000, 1)
	c, err := NewFixed(bytes.NewReader(data), 4096)
	if err != nil {
		t.Fatalf("NewFixed: %v", err)
	}
	chunks, err := All(c)
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	if len(chunks[0].Data) != 4096 || len(chunks[1].Data) != 4096 || len(chunks[2].Data) != 10000-8192 {
		t.Fatalf("chunk sizes = %d/%d/%d", len(chunks[0].Data), len(chunks[1].Data), len(chunks[2].Data))
	}
}

func TestFixedChunkerReassembly(t *testing.T) {
	data := randomBytes(33333, 2)
	c, _ := NewFixed(bytes.NewReader(data), 4096)
	chunks, err := All(c)
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	got, err := Reassemble(chunks)
	if err != nil {
		t.Fatalf("Reassemble: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reassembled data differs from input")
	}
}

func TestFixedChunkerEmptyInput(t *testing.T) {
	c, _ := NewFixed(bytes.NewReader(nil), 4096)
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next on empty input = %v, want EOF", err)
	}
}

func TestFixedChunkerValidation(t *testing.T) {
	if _, err := NewFixed(bytes.NewReader(nil), 0); err == nil {
		t.Fatal("NewFixed(0) succeeded")
	}
}

func TestFixedChunkerFingerprints(t *testing.T) {
	data := randomBytes(8192, 3)
	c, _ := NewFixed(bytes.NewReader(data), 4096)
	chunks, _ := All(c)
	for i, ch := range chunks {
		if ch.FP != fingerprint.FromData(ch.Data) {
			t.Fatalf("chunk %d fingerprint mismatch", i)
		}
	}
	// Identical blocks produce identical fingerprints (the dedup premise).
	same := append(append([]byte(nil), data[:4096]...), data[:4096]...)
	c2, _ := NewFixed(bytes.NewReader(same), 4096)
	dup, _ := All(c2)
	if dup[0].FP != dup[1].FP {
		t.Fatal("identical blocks got different fingerprints")
	}
}

func TestGearChunkerReassembly(t *testing.T) {
	data := randomBytes(200000, 4)
	g, err := NewGear(bytes.NewReader(data), GearConfig{})
	if err != nil {
		t.Fatalf("NewGear: %v", err)
	}
	chunks, err := All(g)
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	got, err := Reassemble(chunks)
	if err != nil {
		t.Fatalf("Reassemble: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reassembled data differs from input")
	}
}

func TestGearChunkerBounds(t *testing.T) {
	data := randomBytes(500000, 5)
	cfg := GearConfig{Min: 2048, Avg: 8192, Max: 65536}
	g, _ := NewGear(bytes.NewReader(data), cfg)
	chunks, _ := All(g)
	if len(chunks) < 2 {
		t.Fatalf("got %d chunks from 500KB", len(chunks))
	}
	for i, ch := range chunks[:len(chunks)-1] { // final chunk may be short
		if len(ch.Data) < cfg.Min || len(ch.Data) > cfg.Max {
			t.Fatalf("chunk %d size %d outside [%d, %d]", i, len(ch.Data), cfg.Min, cfg.Max)
		}
	}
	// Mean in the right ballpark (within 4x of Avg either way).
	mean := 500000 / len(chunks)
	if mean < cfg.Avg/4 || mean > cfg.Avg*4 {
		t.Fatalf("mean chunk size %d far from avg %d", mean, cfg.Avg)
	}
}

func TestGearChunkerShiftResistance(t *testing.T) {
	// The content-defined property: inserting bytes at the front must not
	// change most chunk boundaries (fixed-size chunking changes all).
	data := randomBytes(300000, 6)
	shifted := append(randomBytes(100, 7), data...)

	g1, _ := NewGear(bytes.NewReader(data), GearConfig{})
	g2, _ := NewGear(bytes.NewReader(shifted), GearConfig{})
	c1, _ := All(g1)
	c2, _ := All(g2)

	fps1 := map[fingerprint.Fingerprint]bool{}
	for _, ch := range c1 {
		fps1[ch.FP] = true
	}
	shared := 0
	for _, ch := range c2 {
		if fps1[ch.FP] {
			shared++
		}
	}
	if float64(shared) < 0.5*float64(len(c1)) {
		t.Fatalf("only %d/%d chunks survived a 100-byte prefix insertion", shared, len(c1))
	}
}

func TestGearChunkerDeterministicAcrossSegmentation(t *testing.T) {
	// Boundaries must not depend on how the reader splits its reads.
	data := randomBytes(150000, 8)
	g1, _ := NewGear(bytes.NewReader(data), GearConfig{})
	c1, _ := All(g1)

	g2, _ := NewGear(iotest1ByteReader{bytes.NewReader(data)}, GearConfig{})
	c2, _ := All(g2)

	if len(c1) != len(c2) {
		t.Fatalf("chunk counts differ across read segmentation: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i].FP != c2[i].FP {
			t.Fatalf("chunk %d differs across read segmentation", i)
		}
	}
}

// iotest1ByteReader yields at most 7 bytes per Read to stress buffering.
type iotest1ByteReader struct{ r io.Reader }

func (r iotest1ByteReader) Read(p []byte) (int, error) {
	if len(p) > 7 {
		p = p[:7]
	}
	return r.r.Read(p)
}

func TestGearConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  GearConfig
	}{
		{name: "negative min", cfg: GearConfig{Min: -1, Avg: 8192, Max: 65536}},
		{name: "min above avg", cfg: GearConfig{Min: 9000, Avg: 8192, Max: 65536}},
		{name: "avg above max", cfg: GearConfig{Min: 2048, Avg: 8192, Max: 4096}},
		{name: "avg not power of two", cfg: GearConfig{Min: 2048, Avg: 8000, Max: 65536}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewGear(bytes.NewReader(nil), tt.cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestGearChunkerEmptyInput(t *testing.T) {
	g, _ := NewGear(bytes.NewReader(nil), GearConfig{})
	if _, err := g.Next(); err != io.EOF {
		t.Fatalf("Next on empty input = %v, want EOF", err)
	}
}

func TestReassembleDetectsGaps(t *testing.T) {
	chunks := []Chunk{
		{Data: []byte("abc"), Offset: 0},
		{Data: []byte("def"), Offset: 5}, // gap
	}
	if _, err := Reassemble(chunks); err == nil {
		t.Fatal("Reassemble accepted a gap")
	}
}

// Property: fixed chunking reassembles to the identity for arbitrary data
// and chunk sizes.
func TestQuickFixedRoundTrip(t *testing.T) {
	f := func(data []byte, sizeSeed uint8) bool {
		size := int(sizeSeed%64) + 1
		c, err := NewFixed(bytes.NewReader(data), size)
		if err != nil {
			return false
		}
		chunks, err := All(c)
		if err != nil {
			return false
		}
		got, err := Reassemble(chunks)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: gear chunking reassembles to the identity.
func TestQuickGearRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		g, err := NewGear(bytes.NewReader(data), GearConfig{Min: 16, Avg: 64, Max: 256})
		if err != nil {
			return false
		}
		chunks, err := All(g)
		if err != nil {
			return false
		}
		got, err := Reassemble(chunks)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
