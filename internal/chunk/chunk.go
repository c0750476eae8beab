// Package chunk splits data streams into chunks for deduplication.
//
// The paper's client application "collect[s] changes in local data" and
// "calculat[es] data fingerprints" over chunks of non-overlapping data
// blocks, citing the fixed-size chunking of DDFS-style systems (8 KB for
// the Time Machine workload, 4 KB for the FIU traces). This package
// provides that fixed-size chunker plus a content-defined chunker (Gear
// rolling hash), the standard upgrade that keeps chunk boundaries stable
// under insertions — useful for the backup client example and for
// generating realistic chunk streams from real bytes.
package chunk

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"shhc/internal/fingerprint"
)

// Chunk is one unit of deduplication.
type Chunk struct {
	// Data is the chunk payload. The slice is owned by the caller after
	// Next returns; chunkers never reuse it.
	Data []byte
	// FP is the SHA-1 fingerprint of Data.
	FP fingerprint.Fingerprint
	// Offset is the chunk's byte offset in the original stream.
	Offset int64
}

// Chunker produces consecutive chunks from a stream until io.EOF.
type Chunker interface {
	// Next returns the next chunk, or io.EOF after the final chunk.
	Next() (Chunk, error)
}

// FixedChunker splits a stream into fixed-size blocks (the paper's
// "most common deduplication technique ... splits data into chunks of
// non-overlapping data blocks").
type FixedChunker struct {
	r      io.Reader
	size   int
	offset int64
	done   bool
}

// NewFixed creates a fixed-size chunker. size must be positive.
func NewFixed(r io.Reader, size int) (*FixedChunker, error) {
	if size <= 0 {
		return nil, fmt.Errorf("chunk: fixed size must be positive, got %d", size)
	}
	return &FixedChunker{r: r, size: size}, nil
}

// Next returns the next fixed-size chunk (the last one may be short).
func (c *FixedChunker) Next() (Chunk, error) {
	if c.done {
		return Chunk{}, io.EOF
	}
	buf := make([]byte, c.size)
	n, err := io.ReadFull(c.r, buf)
	if n == 0 {
		c.done = true
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return Chunk{}, io.EOF
		}
		return Chunk{}, fmt.Errorf("chunk: read: %w", err)
	}
	if err != nil {
		// Short final chunk (EOF) or a real error.
		if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
			return Chunk{}, fmt.Errorf("chunk: read: %w", err)
		}
		c.done = true
	}
	buf = buf[:n]
	ch := Chunk{Data: buf, FP: fingerprint.FromData(buf), Offset: c.offset}
	c.offset += int64(n)
	return ch, nil
}

// gearConfig bounds content-defined chunk sizes. avg must be a power of two
// (its mask cuts the chunks). NewGear takes defaultGear; only this package's
// tests pick others.
type gearConfig struct{ min, avg, max int }

// defaultGear is 2 KiB / 8 KiB / 64 KiB, the bounds package backup chunks
// with.
var defaultGear = gearConfig{min: 2048, avg: 8192, max: 65536}

func (c gearConfig) validate() error {
	if c.min <= 0 || c.avg <= 0 || c.max <= 0 {
		return fmt.Errorf("chunk: gear sizes must be positive (min=%d avg=%d max=%d)", c.min, c.avg, c.max)
	}
	if c.min > c.avg || c.avg > c.max {
		return fmt.Errorf("chunk: need min <= avg <= max (min=%d avg=%d max=%d)", c.min, c.avg, c.max)
	}
	if c.avg&(c.avg-1) != 0 {
		return fmt.Errorf("chunk: avg must be a power of two, got %d", c.avg)
	}
	return nil
}

// GearChunker implements Gear-based content-defined chunking: a rolling
// hash over a 64-entry-window equivalent (the gear hash shifts one byte
// in per step) cut where hash & mask == 0.
type GearChunker struct {
	r      io.Reader
	cfg    gearConfig
	table  [256]uint64
	mask   uint64
	offset int64

	buf  []byte // unconsumed readahead
	done bool
}

// NewGear creates a content-defined chunker. Every chunker derives the same
// gear table, so any two agree on boundaries.
func NewGear(r io.Reader) *GearChunker { return newGear(r, defaultGear) }

// newGear panics on an invalid cfg: only NewGear and this package's tests
// pick one.
func newGear(r io.Reader, cfg gearConfig) *GearChunker {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	g := &GearChunker{r: r, cfg: cfg, mask: uint64(cfg.avg - 1)}
	rng := rand.New(rand.NewSource(0x47454152)) // "GEAR"
	for i := range g.table {
		g.table[i] = rng.Uint64()
	}
	return g
}

// Next returns the next content-defined chunk.
func (g *GearChunker) Next() (Chunk, error) {
	if g.done && len(g.buf) == 0 {
		return Chunk{}, io.EOF
	}
	cut := g.findCut()
	for cut < 0 && !g.done {
		// Need more data: grow the readahead by up to max bytes.
		tmp := make([]byte, g.cfg.max)
		n, err := g.r.Read(tmp)
		if n > 0 {
			g.buf = append(g.buf, tmp[:n]...)
		}
		if err != nil {
			if err != io.EOF {
				return Chunk{}, fmt.Errorf("chunk: read: %w", err)
			}
			g.done = true
		}
		cut = g.findCut()
	}
	if cut < 0 {
		// Stream ended: emit the remainder.
		cut = len(g.buf)
	}
	if cut == 0 {
		return Chunk{}, io.EOF
	}
	data := make([]byte, cut)
	copy(data, g.buf[:cut])
	g.buf = g.buf[cut:]
	ch := Chunk{Data: data, FP: fingerprint.FromData(data), Offset: g.offset}
	g.offset += int64(cut)
	return ch, nil
}

// findCut scans the readahead for a chunk boundary, returning the cut
// length or -1 if more data is needed.
func (g *GearChunker) findCut() int {
	if len(g.buf) == 0 {
		return -1
	}
	if len(g.buf) >= g.cfg.max {
		// Look for a natural cut within [min, max); force max otherwise.
		if cut := g.scan(g.cfg.min, g.cfg.max); cut > 0 {
			return cut
		}
		return g.cfg.max
	}
	if len(g.buf) < g.cfg.min {
		return -1
	}
	if cut := g.scan(g.cfg.min, len(g.buf)); cut > 0 {
		return cut
	}
	return -1
}

// scan looks for the first boundary in buf[min:end) and returns the cut
// length (exclusive) or -1. The gear hash warms up over the min prefix so
// boundaries depend only on content, not read segmentation.
func (g *GearChunker) scan(min, end int) int {
	var h uint64
	// Warm the hash over the 64 bytes before min (or from 0).
	start := min - 64
	if start < 0 {
		start = 0
	}
	for i := start; i < min; i++ {
		h = (h << 1) + g.table[g.buf[i]]
	}
	for i := min; i < end; i++ {
		h = (h << 1) + g.table[g.buf[i]]
		if h&g.mask == 0 {
			return i + 1
		}
	}
	return -1
}
