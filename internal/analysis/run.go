package analysis

import (
	"fmt"
	"sort"
)

// Finding is one reported, position-resolved diagnostic — the unit the
// driver prints.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// RunConfig configures one multichecker run.
type RunConfig struct {
	// Dir is the directory whose module is analyzed (go list runs here).
	Dir string
	// Patterns are go package patterns; default "./...".
	Patterns []string
	// Analyzers to apply, in order.
	Analyzers []*Analyzer
}

// Result is the outcome of a run.
type Result struct {
	// Findings for the pattern-matched packages, position-sorted, with
	// suppressed entries already removed.
	Findings []Finding
	// Suppressed counts findings silenced by //lint:ignore comments.
	Suppressed int
	// Packages counts source packages analyzed.
	Packages int
}

// Run loads the package graph and applies every analyzer to every
// non-GOROOT package in dependency order, so facts flow bottom-up.
// Findings are only collected for the packages the patterns named; the
// dependency sweep exists to compute facts and markers.
func Run(cfg RunConfig) (*Result, error) {
	world, err := Load(cfg.Dir, cfg.Patterns...)
	if err != nil {
		return nil, err
	}
	return RunWorld(world, cfg)
}

// RunWorld applies analyzers to an already-loaded world (the golden-test
// harness loads once and probes multiple analyzers).
func RunWorld(world *World, cfg RunConfig) (*Result, error) {
	srcPkgs := world.SourcePackages()

	// Markers are collected for every source package before any analyzer
	// runs: a dependent package's pass must see its dependencies' lock
	// and ownership markers, and collection is cheap (the AST is already
	// in hand).
	markers := NewMarkerSet()
	for _, p := range srcPkgs {
		if err := markers.collectMarkers(world.Fset, p.Files, p.Info, p.Types); err != nil {
			return nil, err
		}
	}

	facts := newFactStore()
	res := &Result{}
	for _, p := range srcPkgs {
		res.Packages++
		var diags []Diagnostic
		report := func(d Diagnostic) { diags = append(diags, d) }
		sups := collectSuppressions(world.Fset, p.Files, report)
		for _, a := range cfg.Analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      world.Fset,
				Files:     p.Files,
				Pkg:       p.Types,
				TypesInfo: p.Info,
				Markers:   markers,
				report:    report,
				facts:     facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, p.ImportPath, err)
			}
		}
		diags, suppressed := applySuppressions(world.Fset, diags, sups)

		if p.DepOnly {
			continue
		}
		for _, d := range diags {
			pos := world.Fset.Position(d.Pos)
			res.Findings = append(res.Findings, Finding{
				Analyzer: d.Analyzer,
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  d.Message,
			})
		}
		res.Suppressed += suppressed
	}

	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}
