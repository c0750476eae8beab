package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Invariant markers are machine-readable `//shhc:` comments on
// declarations. They turn the hot-path rules that used to live in prose
// comments into the analyzers' source of truth:
//
//	//shhc:lock ramonly [rank=N]
//	    On a mutex struct field. "ramonly" declares that no device,
//	    file, or network I/O may run while this lock is held (lockio).
//	    "rank=N" places the lock in the acquisition order: while a lock
//	    of rank N is held, acquiring a lock with rank < N is a
//	    violation (the destage d.mu→shard order).
//
//	//shhc:returns-buf
//	    On a function: its pooled-buffer result transfers ownership to
//	    the caller, who must release it on every path (bufown).
//
//	//shhc:takes-buf <param> [param...]
//	    On a function: it assumes ownership of the pooled buffer passed
//	    as the named parameter(s); passing a buffer there counts as the
//	    caller's release.
//
//	//shhc:io
//	    On a function or interface method: it performs I/O by decree,
//	    seeding lockio's transitive call-graph facts (used on interfaces
//	    like hashdb.Store whose implementations are not statically
//	    visible at call sites).
//
//	//shhc:noio
//	    On a function: overrides the I/O inference (escape hatch for
//	    provably-RAM paths that call something conservatively marked).
type Marker struct {
	Lock    bool
	RAMOnly bool
	Rank    int // 0 = unranked

	ReturnsBuf bool
	TakesBuf   []string

	IO   bool
	NoIO bool
}

// MarkerSet indexes markers by canonical object key (see ObjKey).
type MarkerSet struct {
	m map[string]*Marker
}

// NewMarkerSet returns an empty set.
func NewMarkerSet() *MarkerSet { return &MarkerSet{m: make(map[string]*Marker)} }

// Get returns the marker for a canonical key, or nil.
func (s *MarkerSet) Get(key string) *Marker {
	if s == nil || key == "" {
		return nil
	}
	return s.m[key]
}

// ForObject returns the marker attached to a function or method.
func (s *MarkerSet) ForObject(obj types.Object) *Marker { return s.Get(ObjKey(obj)) }

// ObjKey builds the canonical cross-package key for a package-level
// function, method (by receiver base type), or interface method:
// "pkg/path.Name" or "pkg/path.Type.Name". Objects without a package
// (builtins) key to "".
func ObjKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkg := obj.Pkg().Path()
	if f, ok := obj.(*types.Func); ok {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			if base := baseTypeName(sig.Recv().Type()); base != "" {
				return pkg + "." + base + "." + f.Name()
			}
		}
	}
	return pkg + "." + obj.Name()
}

// FieldKey builds the canonical key for a struct field reached through a
// value of type recv (pointers and aliases are unwrapped).
func FieldKey(recv types.Type, fieldName string) string {
	named := namedOf(recv)
	if named == nil {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name() + "." + fieldName
}

func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

func baseTypeName(t types.Type) string {
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// collectMarkers scans one typechecked package for //shhc: comments and
// merges them into the set. Marker syntax errors are real errors: a typo
// in an invariant declaration must not silently disable enforcement.
func (s *MarkerSet) collectMarkers(fset *token.FileSet, files []*ast.File, info *types.Info, pkg *types.Package) error {
	addLines := func(key string, groups ...*ast.CommentGroup) error {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				text, ok := strings.CutPrefix(c.Text, "//shhc:")
				if !ok {
					continue
				}
				if key == "" {
					return fmt.Errorf("%s: //shhc: marker on declaration without a canonical key", fset.Position(c.Pos()))
				}
				m := s.m[key]
				if m == nil {
					m = &Marker{}
					s.m[key] = m
				}
				if err := parseMarker(m, text); err != nil {
					return fmt.Errorf("%s: %v", fset.Position(c.Pos()), err)
				}
			}
		}
		return nil
	}

	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				if err := addLines(ObjKey(obj), d.Doc); err != nil {
					return err
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					switch t := ts.Type.(type) {
					case *ast.StructType:
						for _, fld := range t.Fields.List {
							for _, name := range fld.Names {
								key := pkg.Path() + "." + ts.Name.Name + "." + name.Name
								if err := addLines(key, fld.Doc, fld.Comment); err != nil {
									return err
								}
							}
						}
					case *ast.InterfaceType:
						for _, meth := range t.Methods.List {
							for _, name := range meth.Names {
								key := pkg.Path() + "." + ts.Name.Name + "." + name.Name
								if err := addLines(key, meth.Doc, meth.Comment); err != nil {
									return err
								}
							}
						}
					}
				}
			}
		}
	}
	return nil
}

func parseMarker(m *Marker, text string) error {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return fmt.Errorf("empty //shhc: marker")
	}
	switch fields[0] {
	case "lock":
		m.Lock = true
		for _, arg := range fields[1:] {
			switch {
			case arg == "ramonly":
				m.RAMOnly = true
			case strings.HasPrefix(arg, "rank="):
				n, err := strconv.Atoi(strings.TrimPrefix(arg, "rank="))
				if err != nil || n <= 0 {
					return fmt.Errorf("shhc:lock rank must be a positive integer, got %q", arg)
				}
				m.Rank = n
			default:
				return fmt.Errorf("unknown shhc:lock argument %q", arg)
			}
		}
	case "returns-buf":
		m.ReturnsBuf = true
	case "takes-buf":
		if len(fields) < 2 {
			return fmt.Errorf("shhc:takes-buf needs at least one parameter name")
		}
		m.TakesBuf = append(m.TakesBuf, fields[1:]...)
	case "io":
		m.IO = true
	case "noio":
		m.NoIO = true
	default:
		return fmt.Errorf("unknown //shhc: marker %q", fields[0])
	}
	return nil
}
