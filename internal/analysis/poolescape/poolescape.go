// Package poolescape guards the lifetime side of the zero-copy pool
// contract. bufown proves every acquired buffer is released on every
// path; poolescape proves a pooled buffer never outlives the release
// point by escaping into long-lived storage. A buffer stashed in a
// struct field, a package variable, a map, or a channel can be read
// after PutBuf recycles it — the classic use-after-free shape that the
// race detector only reports when the pool rehands the page quickly
// enough to collide.
//
// A value is "pooled" when it comes from a call to a function marked
// //shhc:returns-buf (wire.GetBuf, ReadFrame, hashdb getPage, …)
// or is a parameter named by a //shhc:takes-buf marker. The analyzer
// flags, flow-insensitively:
//
//   - assignment of a pooled value to a struct field, dereference,
//     index/map slot, or package-level variable;
//   - a pooled value placed in a composite literal;
//   - a pooled value sent on a channel;
//   - a pooled value returned from a named function NOT itself marked
//     //shhc:returns-buf (an unmarked return hides the ownership
//     transfer from callers and from bufown).
//
// Deliberate hand-offs (the rpc read loop delivering a response body
// through a buffered channel to exactly one waiter) are real designs;
// they carry //lint:ignore poolescape with the justification inline.
package poolescape

import (
	"go/ast"
	"go/types"

	"shhc/internal/analysis"
)

// Analyzer is the poolescape pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolescape",
	Doc:  "pooled buffers must not escape into structs, globals, channels, or unmarked returns",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	pooled := make(map[types.Object]bool)

	// takes-buf parameters are pooled on entry.
	if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
		if m := pass.Markers.ForObject(obj); m != nil {
			for _, pname := range m.TakesBuf {
				for _, fld := range fd.Type.Params.List {
					for _, name := range fld.Names {
						if name.Name == pname {
							if p := info.Defs[name]; p != nil {
								pooled[p] = true
							}
						}
					}
				}
			}
		}
	}

	// Flow-insensitive collection: any var ever assigned from a
	// returns-buf call is pooled for the whole function (including
	// nested literals, which close over the same objects).
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) == 0 {
			return true
		}
		// x := f() / x, err := f(): pooled results map positionally for
		// the single-call form; a lone call RHS covers the common cases.
		if len(as.Rhs) == 1 {
			if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && isPooledCall(pass, call) {
				for _, l := range as.Lhs {
					if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
						if obj := objOf(info, id); obj != nil && analysis.IsBufType(obj.Type()) {
							pooled[obj] = true
						}
					}
				}
			}
			return true
		}
		for i, r := range as.Rhs {
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && isPooledCall(pass, call) && i < len(as.Lhs) {
				if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
					if obj := objOf(info, id); obj != nil && analysis.IsBufType(obj.Type()) {
						pooled[obj] = true
					}
				}
			}
		}
		return true
	})

	declExempt := false
	if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
		if m := pass.Markers.ForObject(obj); m != nil && m.ReturnsBuf {
			declExempt = true
		}
	}

	w := &walker{pass: pass, pooled: pooled}
	w.walk(fd.Body, declExempt)
}

type walker struct {
	pass   *analysis.Pass
	pooled map[types.Object]bool
}

// isPooled reports whether e denotes a pooled buffer: a tracked var or a
// direct returns-buf call.
func (w *walker) isPooled(e ast.Expr) bool {
	switch ex := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := objOf(w.pass.TypesInfo, ex)
		return obj != nil && w.pooled[obj]
	case *ast.CallExpr:
		return isPooledCall(w.pass, ex)
	}
	return false
}

// walk visits statements; returnsExempt tells whether a return of a
// pooled value is allowed in the current function context (the enclosing
// declaration is marked returns-buf, or we are inside a function
// literal, whose returns deliver to a same-function call site bufown
// already tracks).
func (w *walker) walk(n ast.Node, returnsExempt bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch st := node.(type) {
		case *ast.FuncLit:
			w.walk(st.Body, true)
			return false
		case *ast.AssignStmt:
			w.checkAssign(st)
		case *ast.SendStmt:
			if w.isPooled(st.Value) {
				w.pass.Reportf(st.Value.Pos(),
					"pooled buffer sent on a channel escapes its release scope")
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if w.isPooled(v) {
					w.pass.Reportf(v.Pos(),
						"pooled buffer stored in a composite literal may outlive its release")
				}
			}
		case *ast.ReturnStmt:
			if returnsExempt {
				return true
			}
			for _, r := range st.Results {
				if w.isPooled(r) {
					w.pass.Reportf(r.Pos(),
						"pooled buffer returned from a function not marked //shhc:returns-buf hides the ownership transfer")
				}
			}
		}
		return true
	})
}

// checkAssign reports pooled values stored into long-lived places.
func (w *walker) checkAssign(as *ast.AssignStmt) {
	for i, l := range as.Lhs {
		var r ast.Expr
		if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
			continue // multi-value call RHS: no syntactic pooled expr per LHS
		} else if i < len(as.Rhs) {
			r = as.Rhs[i]
		} else {
			continue
		}
		if !w.isPooled(r) {
			continue
		}
		switch lhs := ast.Unparen(l).(type) {
		case *ast.SelectorExpr:
			w.pass.Reportf(r.Pos(),
				"pooled buffer stored in field %s may outlive its release", lhs.Sel.Name)
		case *ast.IndexExpr:
			w.pass.Reportf(r.Pos(),
				"pooled buffer stored in a slice or map element may outlive its release")
		case *ast.StarExpr:
			w.pass.Reportf(r.Pos(),
				"pooled buffer stored through a pointer may outlive its release")
		case *ast.Ident:
			if obj := objOf(w.pass.TypesInfo, lhs); obj != nil && obj.Parent() == w.pass.Pkg.Scope() {
				w.pass.Reportf(r.Pos(),
					"pooled buffer stored in package variable %s may outlive its release", lhs.Name)
			}
		}
	}
}

// isPooledCall reports whether call's callee is marked //shhc:returns-buf.
func isPooledCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	callee := analysis.Callee(pass.TypesInfo, call)
	if callee == nil {
		return false
	}
	m := pass.Markers.ForObject(callee)
	return m != nil && m.ReturnsBuf
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
