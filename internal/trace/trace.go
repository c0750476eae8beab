// Package trace generates and analyzes fingerprint workloads matching the
// paper's Table I.
//
// The paper evaluates SHHC with fingerprint traces of four real-world
// workloads (three FIU traces and a six-month Time Machine backup),
// characterized by three statistics: total fingerprints, % redundant
// (fraction of lookups that hit an already-stored fingerprint), and
// "distance" (the average number of positions between occurrences of the
// same fingerprint, i.e. mean reuse distance — shorter means more spatial
// locality). Those traces are not distributable, so this package generates
// synthetic streams that match all three statistics, and provides the
// analyzer that recomputes them from any stream so the match is verifiable.
//
// Generation model: the stream is produced left to right. Most positions
// emit fresh unique fingerprints. With the configured probability a
// *duplicate run* starts: a contiguous range of fingerprints from `d`
// positions back is replayed, where d is exponentially distributed with the
// target mean distance. Runs model the paper's observation that backup
// streams exhibit chunk locality — duplicates arrive in sequences, which is
// exactly what batched queries exploit.
package trace

import (
	"fmt"
	"math"
	"math/rand"

	"shhc/internal/fingerprint"
)

// Default chunk sizes from the paper: "8KB chunk size for the Time machine
// and 4KB for the others".
const (
	ChunkSize4K = 4096
	ChunkSize8K = 8192
)

// Spec parameterizes a synthetic workload.
type Spec struct {
	// Name labels the workload in reports.
	Name string
	// Fingerprints is the stream length (Table I "Fingerprints").
	Fingerprints int
	// PctRedundant is the duplicate fraction in [0,1) (Table I "% Redundant").
	PctRedundant float64
	// Distance is the target mean reuse distance (Table I "Distance").
	Distance int
	// ChunkSize is the chunk size in bytes the fingerprints notionally
	// describe; throughput math uses it.
	ChunkSize int
	// MeanRunLength is the mean length of duplicate runs (chunk
	// locality). Defaults to 32.
	MeanRunLength int
	// Seed makes the stream deterministic.
	Seed int64
}

// Paper workloads, exactly as reported in Table I.
var (
	// WebServer is the FIU web server trace: 2,094,832 fingerprints,
	// 18% redundant, mean distance 10,781.
	WebServer = Spec{Name: "Web Server", Fingerprints: 2094832, PctRedundant: 0.18, Distance: 10781, ChunkSize: ChunkSize4K, Seed: 1}
	// HomeDir is the FIU home directories trace: 2,501,186 fingerprints,
	// 37% redundant, mean distance 26,326.
	HomeDir = Spec{Name: "Home Dir", Fingerprints: 2501186, PctRedundant: 0.37, Distance: 26326, ChunkSize: ChunkSize4K, Seed: 2}
	// MailServer is the FIU mail server trace: 24,122,047 fingerprints,
	// 85% redundant, mean distance 246,253.
	MailServer = Spec{Name: "Mail Server", Fingerprints: 24122047, PctRedundant: 0.85, Distance: 246253, ChunkSize: ChunkSize4K, Seed: 3}
	// TimeMachine is the 6-month OSX Time Machine backup: 13,146,417
	// fingerprints, 17% redundant, mean distance 1,004,899.
	TimeMachine = Spec{Name: "Time machine", Fingerprints: 13146417, PctRedundant: 0.17, Distance: 1004899, ChunkSize: ChunkSize8K, Seed: 4}
)

// PaperWorkloads returns the four Table I workloads in paper order.
func PaperWorkloads() []Spec {
	return []Spec{WebServer, HomeDir, MailServer, TimeMachine}
}

// Scaled returns the spec shrunk by the given divisor. Both the stream
// length and the reuse distance shrink together, preserving the
// distance/length ratio that governs cache and locality behavior.
func (s Spec) Scaled(divisor int) Spec {
	if divisor <= 1 {
		return s
	}
	out := s
	out.Name = fmt.Sprintf("%s (1/%d)", s.Name, divisor)
	out.Fingerprints = s.Fingerprints / divisor
	out.Distance = s.Distance / divisor
	if out.Distance < 1 {
		out.Distance = 1
	}
	return out
}

func (s *Spec) fill() {
	if s.ChunkSize <= 0 {
		s.ChunkSize = ChunkSize4K
	}
	if s.MeanRunLength <= 0 {
		s.MeanRunLength = 32
	}
	if s.Distance < 1 {
		s.Distance = 1
	}
}

// maxWindow bounds generator memory: the replay window holds at most this
// many recent fingerprints (24 bytes each in memory; 8M -> 192 MB).
const maxWindow = 8 << 20

// Generator produces a workload stream one fingerprint at a time.
// It is not safe for concurrent use.
type Generator struct {
	spec Spec
	rng  *rand.Rand

	pos     int
	nextUID uint64
	// window is a circular buffer of the most recent fingerprints.
	window []fingerprint.Fingerprint
	// isLast marks window slots that are still the latest occurrence of
	// their fingerprint. Duplicates are only copied from such slots, so
	// the measured reuse distance equals the sampled distance exactly.
	isLast []bool
	wcap   int

	// active duplicate run: runSrc is the absolute position of the last
	// copied source; the run continues with the next last-occurrence slot
	// after it.
	runLeft int
	runSrc  int

	pStart float64 // probability a duplicate run starts at a position
}

// NewGenerator creates a deterministic generator for the spec.
func NewGenerator(spec Spec) *Generator {
	spec.fill()
	wcap := 4 * spec.Distance
	if wcap > maxWindow {
		wcap = maxWindow
	}
	if wcap < 16 {
		wcap = 16
	}
	g := &Generator{
		spec:   spec,
		rng:    rand.New(rand.NewSource(spec.Seed ^ 0x5348_4843)), // "SHHC"
		window: make([]fingerprint.Fingerprint, 0, wcap),
		isLast: make([]bool, wcap),
		wcap:   wcap,
	}
	// Run starts are only decided at positions not already inside a run.
	// A cycle is one decision position plus, with probability q, the rest
	// of a run of mean length R, so the duplicate fraction is
	// qR / (qR + 1 - q). Solving for the target fraction p gives:
	p, r := spec.PctRedundant, float64(spec.MeanRunLength)
	g.pStart = p / (r*(1-p) + p)
	// uid namespace separated by seed so distinct workloads do not share
	// fingerprints unless explicitly seeded identically.
	g.nextUID = uint64(spec.Seed) << 40
	return g
}

// Remaining returns how many fingerprints are left in the stream.
func (g *Generator) Remaining() int { return g.spec.Fingerprints - g.pos }

// Next returns the next fingerprint, or false when the stream is done.
func (g *Generator) Next() (fingerprint.Fingerprint, bool) {
	if g.pos >= g.spec.Fingerprints {
		return fingerprint.Zero, false
	}

	var (
		fp  fingerprint.Fingerprint
		dup bool
	)
	if g.runLeft > 0 {
		// Continue the run with the next last-occurrence slot after the
		// previous source.
		if src, ok := g.findLastOccurrence(g.runSrc+1, +1); ok {
			fp = g.copyFrom(src)
			dup = true
			g.runLeft--
		} else {
			g.runLeft = 0
		}
	}
	if !dup && len(g.window) > 0 && g.rng.Float64() < g.pStart {
		// Start a new duplicate run d positions back, snapped to the
		// nearest slot still holding a last occurrence.
		d := g.sampleDistance()
		if d > len(g.window) {
			d = len(g.window)
		}
		if d < 1 {
			d = 1
		}
		if src, ok := g.findLastOccurrence(g.pos-d, +1); ok {
			fp = g.copyFrom(src)
			dup = true
			g.runLeft = g.sampleRunLength() - 1
		}
	}
	if !dup {
		g.runLeft = 0
		fp = fingerprint.FromUint64(g.nextUID)
		g.nextUID++
	}

	g.push(fp)
	g.pos++
	return fp, true
}

// findLastOccurrence scans from absolute position `from` in direction
// `step` for a window slot still marked as a last occurrence, stopping
// before the current position. It returns the absolute source position.
func (g *Generator) findLastOccurrence(from, step int) (int, bool) {
	lo := g.pos - len(g.window)
	if from < lo {
		from = lo
	}
	for p := from; p >= lo && p < g.pos; p += step {
		if g.isLast[g.slot(p)] {
			return p, true
		}
	}
	return 0, false
}

// copyFrom emits a duplicate of the fingerprint at absolute position src,
// transferring last-occurrence status to the new position.
func (g *Generator) copyFrom(src int) fingerprint.Fingerprint {
	s := g.slot(src)
	g.isLast[s] = false
	g.runSrc = src
	return g.window[s]
}

func (g *Generator) slot(pos int) int {
	idx := pos % g.wcap
	if idx < 0 {
		idx += g.wcap
	}
	return idx
}

func (g *Generator) push(fp fingerprint.Fingerprint) {
	s := g.slot(g.pos)
	if len(g.window) < g.wcap {
		g.window = append(g.window, fp)
	} else {
		g.window[s] = fp
	}
	g.isLast[s] = true
}

func (g *Generator) sampleDistance() int {
	d := int(g.rng.ExpFloat64() * float64(g.spec.Distance))
	if d < 1 {
		d = 1
	}
	return d
}

func (g *Generator) sampleRunLength() int {
	// Geometric with the configured mean.
	mean := float64(g.spec.MeanRunLength)
	l := int(math.Ceil(g.rng.ExpFloat64() * mean))
	if l < 1 {
		l = 1
	}
	return l
}

// Stats are the Table I statistics recomputed from a stream.
type Stats struct {
	Name         string
	Fingerprints int
	Unique       int
	Redundant    int
	PctRedundant float64
	// MeanDistance is the mean gap between consecutive occurrences of the
	// same fingerprint, over all duplicate events.
	MeanDistance float64
}

func (s Stats) String() string {
	return fmt.Sprintf("%-16s fingerprints=%-9d redundant=%5.1f%% distance=%.0f",
		s.Name, s.Fingerprints, s.PctRedundant*100, s.MeanDistance)
}

// Analyzer recomputes Table I statistics from any fingerprint stream.
type Analyzer struct {
	name     string
	lastSeen map[fingerprint.Fingerprint]int
	pos      int
	dups     int
	distSum  float64
}

// NewAnalyzer creates an analyzer. Memory grows with the number of unique
// fingerprints observed.
func NewAnalyzer(name string) *Analyzer {
	return &Analyzer{name: name, lastSeen: make(map[fingerprint.Fingerprint]int)}
}

// Observe feeds one fingerprint.
func (a *Analyzer) Observe(fp fingerprint.Fingerprint) {
	if last, ok := a.lastSeen[fp]; ok {
		a.dups++
		a.distSum += float64(a.pos - last)
	}
	a.lastSeen[fp] = a.pos
	a.pos++
}

// Stats returns the statistics over everything observed so far.
func (a *Analyzer) Stats() Stats {
	s := Stats{
		Name:         a.name,
		Fingerprints: a.pos,
		Unique:       len(a.lastSeen),
		Redundant:    a.dups,
	}
	if a.pos > 0 {
		s.PctRedundant = float64(a.dups) / float64(a.pos)
	}
	if a.dups > 0 {
		s.MeanDistance = a.distSum / float64(a.dups)
	}
	return s
}

// Interleave merges several generators into one stream by drawing blocks
// of blockSize round-robin, mimicking the evaluation's "mixed workloads"
// fed by concurrent clients while preserving each stream's locality.
type Interleave struct {
	gens  []*Generator
	block int
	cur   int
	left  int
}

// NewInterleave creates a block-interleaved merge of the generators.
func NewInterleave(blockSize int, gens ...*Generator) *Interleave {
	if blockSize <= 0 {
		blockSize = 128
	}
	return &Interleave{gens: gens, block: blockSize, left: blockSize}
}

// Next returns the next fingerprint of the merged stream.
func (it *Interleave) Next() (fingerprint.Fingerprint, bool) {
	for range it.gens {
		g := it.gens[it.cur]
		if g.Remaining() > 0 && it.left > 0 {
			it.left--
			return g.Next()
		}
		it.cur = (it.cur + 1) % len(it.gens)
		it.left = it.block
	}
	// All generators may still have the current one exhausted mid-block;
	// do a final sweep.
	for i, g := range it.gens {
		if g.Remaining() > 0 {
			it.cur = i
			it.left = it.block - 1
			return g.Next()
		}
	}
	return fingerprint.Zero, false
}

// Remaining sums the remaining lengths of all member streams.
func (it *Interleave) Remaining() int {
	total := 0
	for _, g := range it.gens {
		total += g.Remaining()
	}
	return total
}
