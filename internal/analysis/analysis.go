// Package analysis is a self-contained static-analysis framework in the
// shape of golang.org/x/tools/go/analysis, built only on the standard
// library so the repo's vet suite needs no module downloads.
//
// It provides:
//
//   - Analyzer / Pass / Diagnostic, the x/tools trio: an analyzer's Run
//     receives one typechecked package and reports findings.
//   - A loader (load.go) that enumerates packages with `go list -export
//     -deps -json`, typechecks module packages from source with go/types,
//     and imports everything else (the standard library) from compiler
//     export data — fully offline.
//   - Cross-package object facts (facts.go): a pass on package P can
//     export a fact about one of P's objects ("this function performs
//     device I/O") and a later pass on a dependent package imports it.
//   - Invariant markers (markers.go): machine-readable `//shhc:` comments
//     on declarations — the source of truth the analyzers enforce.
//   - Suppressions (suppress.go): `//lint:ignore <analyzers> <reason>`
//     silences a finding on the next line, with a mandatory reason.
//
// The concrete analyzers live in subpackages (bufown, lockio,
// ctxfirst) and are driven by cmd/shhc-vet.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one analysis and its entry point.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore comments. Lowercase, no spaces.
	Name string

	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string

	// Run applies the analyzer to one package. It reports findings via
	// pass.Report and may exchange facts via pass.ExportObjectFact /
	// pass.ImportObjectFact. The error return is for operational failures
	// only — findings are diagnostics, not errors.
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass is the interface between one analyzer and one package.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Markers holds the //shhc: invariant markers declared in this
	// package and in every module dependency (keyed by object, see
	// markers.go).
	Markers *MarkerSet

	report func(Diagnostic)
	facts  factStore
}

// Report records a finding. Findings on lines carrying a matching
// //lint:ignore comment are filtered by the driver, not here.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}
