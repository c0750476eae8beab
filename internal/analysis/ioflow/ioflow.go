// Package ioflow computes "may perform I/O" facts over the static call
// graph, shared by the lockio and ctxfirst analyzers.
//
// A function performs I/O when it (transitively, through statically
// resolvable calls) reaches one of:
//
//   - a method of os.File, or an I/O-shaped function of package os;
//   - anything in net or syscall (minus pure parsers);
//   - an io/bufio interface method or helper (Read/Write by contract);
//   - time.Sleep (a deliberate block is as bad as a device access under
//     a stripe lock);
//   - a function or interface method marked //shhc:io (hashdb.Store,
//     device accounting) — the decree that seeds the graph where
//     implementations are not statically visible.
//
// //shhc:noio on a declaration overrides the inference for that
// function. Calls through plain function values (callbacks such as the
// LRU eviction hook) are not resolvable and count as non-I/O; the
// dynamic gated-store tests cover that blind spot.
//
// Facts are exported in the shared "ioflow" namespace: the first
// analyzer to run on a package computes them, and later analyzers (and
// dependent packages) reuse them.
package ioflow

import (
	"go/ast"
	"go/types"

	"shhc/internal/analysis"
)

// Namespace is the shared fact namespace.
const Namespace = "ioflow"

// Fact marks one function as performing I/O.
type Fact struct {
	IO bool `json:"io"`
}

// sentinelKey marks a package whose facts are already computed, keyed by
// package path so repeated Ensure calls (one per analyzer) are cheap.
func sentinelKey(pkgPath string) string { return pkgPath + ".\x00done" }

// Ensure computes and exports I/O facts for the pass's package if no
// analyzer has done so yet in this run.
func Ensure(pass *analysis.Pass) {
	var done Fact
	if pass.ImportNamespacedFact(Namespace, sentinelKey(pass.Pkg.Path()), &done) {
		return
	}
	compute(pass)
	pass.ExportNamespacedFact(Namespace, sentinelKey(pass.Pkg.Path()), Fact{IO: true})
}

// FuncIsIO reports whether the resolved function performs I/O, combining
// primitives, markers, and exported facts.
func FuncIsIO(pass *analysis.Pass, fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if m := pass.Markers.ForObject(fn); m != nil {
		if m.NoIO {
			return false
		}
		if m.IO {
			return true
		}
	}
	if primitiveIO(fn) {
		return true
	}
	var f Fact
	if pass.ImportNamespacedFact(Namespace, analysis.ObjKey(fn), &f) {
		return f.IO
	}
	return false
}

// netPure lists net functions that never touch a socket.
var netPure = map[string]bool{
	"ParseIP": true, "ParseCIDR": true, "ParseMAC": true,
	"JoinHostPort": true, "SplitHostPort": true, "CIDRMask": true,
	"IPv4": true, "IPv4Mask": true,
}

// osIOFuncs lists package-level os functions that hit the filesystem.
var osIOFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirTemp": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Truncate": true,
	"Mkdir": true, "MkdirAll": true, "Stat": true, "Lstat": true,
	"Link": true, "Symlink": true, "Chmod": true, "Chown": true,
	"ReadLink": true, "Chtimes": true,
}

// ioPkgIONames lists io/bufio call names that move bytes through a
// reader or writer (I/O by contract, whatever the dynamic type).
var ioPkgIONames = map[string]bool{
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true,
	"ReadFull": true, "ReadAll": true, "Copy": true, "CopyN": true,
	"CopyBuffer": true, "WriteString": true, "ReadFrom": true,
	"WriteTo": true, "Flush": true, "ReadByte": true, "ReadBytes": true,
	"ReadString": true, "ReadSlice": true, "ReadRune": true, "Peek": true,
	"Discard": true, "WriteByte": true, "WriteRune": true, "Close": true,
}

// primitiveIO classifies standard-library calls.
func primitiveIO(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	name := fn.Name()
	recvBase := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recvBase = baseName(sig.Recv().Type())
	}
	switch pkg.Path() {
	case "os":
		if recvBase == "File" {
			return true
		}
		return osIOFuncs[name]
	case "net":
		return !netPure[name]
	case "syscall", "internal/poll":
		return true
	case "time":
		return name == "Sleep"
	case "io", "bufio":
		return ioPkgIONames[name]
	}
	return false
}

func baseName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		default:
			return ""
		}
	}
}

// compute runs the package-local fixpoint and exports facts.
func compute(pass *analysis.Pass) {
	info := pass.TypesInfo

	// Gather this package's function bodies.
	type fnode struct {
		obj  *types.Func
		body *ast.BlockStmt
		io   bool
	}
	var fns []*fnode
	byObj := make(map[*types.Func]*fnode)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &fnode{obj: obj, body: fd.Body}
			fns = append(fns, n)
			byObj[obj] = n
		}
	}

	// Seed: direct primitives, markers, and imported facts; then iterate
	// same-package calls to a fixpoint.
	callees := make(map[*fnode][]*types.Func)
	for _, n := range fns {
		if m := pass.Markers.ForObject(n.obj); m != nil && m.NoIO {
			continue // pinned non-I/O regardless of body
		}
		ast.Inspect(n.body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.Callee(info, call)
			if callee == nil {
				return true
			}
			if FuncIsIO(pass, callee) {
				n.io = true
			} else if callee.Pkg() == pass.Pkg {
				callees[n] = append(callees[n], callee)
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, n := range fns {
			if n.io {
				continue
			}
			for _, c := range callees[n] {
				if cn, ok := byObj[c]; ok && cn.io {
					n.io = true
					changed = true
					break
				}
			}
		}
	}
	for _, n := range fns {
		if n.io {
			pass.ExportNamespacedFact(Namespace, analysis.ObjKey(n.obj), Fact{IO: true})
		}
	}
}
