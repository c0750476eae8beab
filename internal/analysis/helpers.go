package analysis

import (
	"go/ast"
	"go/types"
)

// Callee resolves the statically-known function or method a call
// invokes, or nil for calls through function values, type conversions,
// and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fn.Sel] // package-qualified call
		}
	}
	f, _ := obj.(*types.Func)
	return f
}

// IsBufType reports whether t is one of the pooled shapes the ownership
// analyzers track in the results of a //shhc:returns-buf function: []byte
// (the hashdb page pool), a pointer to a slice (*[]byte, the wire pool;
// *[]core.Pair, the rpc server's decoded batches) or a pointer to a struct
// (a pooled scratch record: webfront's planScratch, core's batchScratch).
func IsBufType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		switch u.Elem().Underlying().(type) {
		case *types.Slice, *types.Struct:
			return true
		}
	case *types.Slice:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	return false
}

// FuncHasGoto reports whether any statement in body is a goto; the
// structured path walkers bail on such functions rather than guess.
func FuncHasGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok.String() == "goto" {
			found = true
		}
		return !found
	})
	return found
}
