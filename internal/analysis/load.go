package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Package is one loaded package: the `go list` metadata plus, for
// packages typechecked from source, the syntax and type information the
// analyzers consume.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string // compiler export data (build cache), for importing
	DepOnly    bool   // pulled in as a dependency, not named by the patterns

	// Source packages only (everything outside GOROOT):
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// World is a loaded, typechecked package graph in dependency order.
type World struct {
	Fset *token.FileSet
	// Pkgs holds every listed package keyed by import path.
	Pkgs map[string]*Package
	// Order lists import paths with dependencies before dependents.
	Order []string

	exports map[string]string // import path -> export data file
	gcImp   types.Importer    // export-data importer for GOROOT packages
	source  map[string]*types.Package
}

// listPackage mirrors the `go list -json` fields the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load enumerates patterns (and all dependencies) from dir, typechecks
// every non-GOROOT package from source, and returns the graph in
// dependency order. The go toolchain does the package resolution, so
// build constraints, module boundaries, and the build cache all behave
// exactly as `go build` would — and no network is ever touched.
func Load(dir string, patterns ...string) (*World, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Standard,Export,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	w := &World{
		Fset:    token.NewFileSet(),
		Pkgs:    make(map[string]*Package),
		exports: make(map[string]string),
		source:  make(map[string]*types.Package),
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		p := &Package{
			ImportPath: lp.ImportPath,
			Dir:        lp.Dir,
			GoFiles:    lp.GoFiles,
			Standard:   lp.Standard,
			Export:     lp.Export,
			DepOnly:    lp.DepOnly,
		}
		if _, dup := w.Pkgs[p.ImportPath]; !dup {
			w.Pkgs[p.ImportPath] = p
			w.Order = append(w.Order, p.ImportPath)
		}
		if p.Export != "" {
			w.exports[p.ImportPath] = p.Export
		}
	}

	// One export-data importer instance serves every GOROOT import, so
	// each standard-library package has exactly one types.Package
	// identity across the whole run.
	w.gcImp = importer.ForCompiler(w.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := w.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	})

	// `go list -deps` emits dependencies before dependents, so one
	// forward sweep typechecks imports before importers.
	for _, path := range w.Order {
		p := w.Pkgs[path]
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if err := w.typecheck(p); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Import implements types.Importer: source-typechecked packages resolve
// to their source identity, everything else (GOROOT) to export data.
func (w *World) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := w.source[path]; ok {
		return tp, nil
	}
	return w.gcImp.Import(path)
}

func (w *World) typecheck(p *Package) error {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(w.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("analysis: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: w,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tp, err := conf.Check(p.ImportPath, w.Fset, files, info)
	if err != nil {
		return fmt.Errorf("analysis: typecheck %s: %v", p.ImportPath, err)
	}
	p.Files = files
	p.Types = tp
	p.Info = info
	w.source[p.ImportPath] = tp
	return nil
}

// SourcePackages returns the non-GOROOT packages in dependency order.
func (w *World) SourcePackages() []*Package {
	var out []*Package
	for _, path := range w.Order {
		if p := w.Pkgs[path]; !p.Standard && p.Types != nil {
			out = append(out, p)
		}
	}
	return out
}
