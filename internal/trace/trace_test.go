package trace

import (
	"math"
	"testing"

	"shhc/internal/fingerprint"
)

func TestGeneratorLength(t *testing.T) {
	spec := Spec{Name: "t", Fingerprints: 10000, PctRedundant: 0.3, Distance: 100, Seed: 7}
	g := NewGenerator(spec)
	n := 0
	for {
		_, ok := g.Next()
		if !ok {
			break
		}
		n++
	}
	if n != spec.Fingerprints {
		t.Fatalf("stream length = %d, want %d", n, spec.Fingerprints)
	}
	if _, ok := g.Next(); ok {
		t.Fatal("Next returned true after exhaustion")
	}
}

// drain returns the rest of g's stream.
func drain(g *Generator) []fingerprint.Fingerprint {
	var out []fingerprint.Fingerprint
	for fp, ok := g.Next(); ok; fp, ok = g.Next() {
		out = append(out, fp)
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	spec := Spec{Name: "t", Fingerprints: 5000, PctRedundant: 0.4, Distance: 50, Seed: 11}
	a := drain(NewGenerator(spec))
	b := drain(NewGenerator(spec))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	s1 := Spec{Name: "t", Fingerprints: 1000, PctRedundant: 0.2, Distance: 50, Seed: 1}
	s2 := s1
	s2.Seed = 2
	a := drain(NewGenerator(s1))
	b := drain(NewGenerator(s2))
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("streams with different seeds share %d/%d positions", same, len(a))
	}
}

func TestGeneratorHitsTargetStats(t *testing.T) {
	tests := []Spec{
		{Name: "low-dup", Fingerprints: 200000, PctRedundant: 0.18, Distance: 1000, Seed: 1},
		{Name: "mid-dup", Fingerprints: 200000, PctRedundant: 0.37, Distance: 2500, Seed: 2},
		{Name: "high-dup", Fingerprints: 200000, PctRedundant: 0.85, Distance: 5000, Seed: 3},
	}
	for _, spec := range tests {
		t.Run(spec.Name, func(t *testing.T) {
			g := NewGenerator(spec)
			an := NewAnalyzer(spec.Name)
			for {
				fp, ok := g.Next()
				if !ok {
					break
				}
				an.Observe(fp)
			}
			st := an.Stats()
			if math.Abs(st.PctRedundant-spec.PctRedundant) > 0.05 {
				t.Fatalf("redundancy = %.3f, want %.3f +/- 0.05", st.PctRedundant, spec.PctRedundant)
			}
			// Mean distance within 40% of target (clamping near stream
			// start biases it down; tolerance reflects that).
			lo, hi := 0.6*float64(spec.Distance), 1.4*float64(spec.Distance)
			if st.MeanDistance < lo || st.MeanDistance > hi {
				t.Fatalf("mean distance = %.0f, want within [%.0f, %.0f]", st.MeanDistance, lo, hi)
			}
		})
	}
}

func TestPaperWorkloadsScaled(t *testing.T) {
	// The four Table I workloads at 1/64 scale must land near their
	// redundancy targets; this is the core Table I reproduction check.
	for _, spec := range PaperWorkloads() {
		spec := spec.Scaled(64)
		t.Run(spec.Name, func(t *testing.T) {
			g := NewGenerator(spec)
			an := NewAnalyzer(spec.Name)
			for {
				fp, ok := g.Next()
				if !ok {
					break
				}
				an.Observe(fp)
			}
			st := an.Stats()
			var want float64
			switch {
			case spec.Name[:3] == "Web":
				want = 0.18
			case spec.Name[:4] == "Home":
				want = 0.37
			case spec.Name[:4] == "Mail":
				want = 0.85
			default:
				want = 0.17
			}
			if math.Abs(st.PctRedundant-want) > 0.06 {
				t.Fatalf("redundancy = %.3f, want %.3f +/- 0.06", st.PctRedundant, want)
			}
		})
	}
}

func TestScaledPreservesRatio(t *testing.T) {
	s := MailServer.Scaled(16)
	wantLen := MailServer.Fingerprints / 16
	wantDist := MailServer.Distance / 16
	if s.Fingerprints != wantLen || s.Distance != wantDist {
		t.Fatalf("scaled = %d/%d, want %d/%d", s.Fingerprints, s.Distance, wantLen, wantDist)
	}
	if MailServer.Scaled(1) != MailServer {
		t.Fatal("Scaled(1) must be identity")
	}
}

func TestAnalyzerExactStream(t *testing.T) {
	an := NewAnalyzer("exact")
	// Stream: A B A C B A -> dups: A(+2 at pos2), B(+3 at pos4), A(+3 at pos5)
	fps := []fingerprint.Fingerprint{
		fingerprint.FromUint64(1), // A pos0
		fingerprint.FromUint64(2), // B pos1
		fingerprint.FromUint64(1), // A pos2, dist 2
		fingerprint.FromUint64(3), // C pos3
		fingerprint.FromUint64(2), // B pos4, dist 3
		fingerprint.FromUint64(1), // A pos5, dist 3
	}
	for _, fp := range fps {
		an.Observe(fp)
	}
	st := an.Stats()
	if st.Fingerprints != 6 || st.Unique != 3 || st.Redundant != 3 {
		t.Fatalf("stats = %+v, want 6/3/3", st)
	}
	if got, want := st.PctRedundant, 0.5; got != want {
		t.Fatalf("PctRedundant = %v, want %v", got, want)
	}
	if got, want := st.MeanDistance, (2.0+3.0+3.0)/3.0; got != want {
		t.Fatalf("MeanDistance = %v, want %v", got, want)
	}
}

func TestAnalyzerEmpty(t *testing.T) {
	st := NewAnalyzer("empty").Stats()
	if st.Fingerprints != 0 || st.PctRedundant != 0 || st.MeanDistance != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestInterleaveMergesAll(t *testing.T) {
	g1 := NewGenerator(Spec{Name: "a", Fingerprints: 1000, PctRedundant: 0.2, Distance: 50, Seed: 1})
	g2 := NewGenerator(Spec{Name: "b", Fingerprints: 500, PctRedundant: 0.5, Distance: 20, Seed: 2})
	it := NewInterleave(64, g1, g2)
	if it.Remaining() != 1500 {
		t.Fatalf("Remaining = %d, want 1500", it.Remaining())
	}
	n := 0
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 1500 {
		t.Fatalf("merged stream length = %d, want 1500", n)
	}
}

func TestZeroRedundancyStream(t *testing.T) {
	g := NewGenerator(Spec{Name: "unique", Fingerprints: 5000, PctRedundant: 0, Distance: 100, Seed: 3})
	an := NewAnalyzer("unique")
	for {
		fp, ok := g.Next()
		if !ok {
			break
		}
		an.Observe(fp)
	}
	st := an.Stats()
	if st.Redundant != 0 || st.Unique != 5000 {
		t.Fatalf("zero-redundancy stream produced %d dups / %d unique", st.Redundant, st.Unique)
	}
}
