// Package lockio enforces the hot-path locking rules PR-2 and PR-4
// established and the //shhc:lock markers now declare in source:
//
//   - ramonly: while a marked lock (node stripe, LRU stripe, destage
//     shard) is held, no call may reach device, file, or network I/O —
//     "the RAM walk runs under the stripe lock, the SSD phase outside
//     it". I/O reachability comes from the shared ioflow call-graph
//     facts, so a violation three calls deep is still caught.
//   - rank=N: locks acquire in ascending rank order (destage d.mu
//     rank=1 before shard locks rank=2); taking a lower-ranked lock
//     while holding a higher-ranked one is a deadlock-shaped violation.
//
// The analyzer walks each function's statement structure, tracking the
// set of marked locks held: x.mu.Lock()/RLock() opens a region,
// x.mu.Unlock()/RUnlock() closes it, and defer x.mu.Unlock() holds it to
// function exit. Branches are merged by intersection (a lock must be
// held on every path to count), which keeps conditional-unlock patterns
// quiet. A path that leaves by return, panic or continue reaches nothing
// after the merge and is left out of it, so the lock an `if closed {
// mu.Unlock(); return }` guard releases stays held after the guard; an
// unlabeled break joins the path after its loop, switch or select instead
// (a labeled one is dropped). Calls inside function literals are only charged when the
// literal is invoked or deferred in the region. goto bails.
package lockio

import (
	"go/ast"
	"go/token"
	"go/types"

	"shhc/internal/analysis"
	"shhc/internal/analysis/ioflow"
)

// Analyzer is the lockio pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc:  "forbid I/O while ramonly-marked locks are held; enforce lock rank order",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	ioflow.Ensure(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				walkFunc(pass, fd.Body)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				walkFunc(pass, lit.Body)
			}
			return true
		})
	}
	return nil
}

// heldLock is one marked lock currently held on a path.
type heldLock struct {
	key     string // canonical field key
	display string // receiver-qualified name for messages
	ramonly bool
	rank    int
	pos     token.Pos // acquisition site
}

type lockState struct {
	held map[string]*heldLock
	left bool // the path jumped away: it reaches no following statement
}

func newLockState() *lockState { return &lockState{held: make(map[string]*heldLock)} }

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	c.left = s.left
	return c
}

// merge joins the path other into s where both meet: a lock stays held
// only if it is held on both, and a path that has left brings nothing.
func (s *lockState) merge(other *lockState) {
	switch {
	case other.left:
	case s.left:
		*s = *other
	default:
		for k := range s.held {
			if _, ok := other.held[k]; !ok {
				delete(s.held, k)
			}
		}
	}
}

type lockWalker struct {
	pass *analysis.Pass
	// breaks holds, per enclosing loop, switch or select, the join of the
	// paths its unlabeled breaks leave on (nil while it has none).
	breaks []*lockState
}

func walkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	if analysis.FuncHasGoto(body) {
		return
	}
	w := &lockWalker{pass: pass}
	w.stmts(body.List, newLockState())
}

func (w *lockWalker) stmts(list []ast.Stmt, s *lockState) {
	for _, st := range list {
		if s.left {
			return // unreachable
		}
		w.stmt(st, s)
	}
}

func (w *lockWalker) stmt(stmt ast.Stmt, s *lockState) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		w.expr(st.X, s)
		s.left = s.left || w.isPanic(st.X)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			w.expr(r, s)
		}
		for _, l := range st.Lhs {
			w.expr(l, s)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, s)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// defer x.mu.Unlock() holds the lock for the rest of the
		// function: nothing to close. defer of anything else charges its
		// I/O at the defer site (it will run while... actually at exit;
		// conservatively treat as running outside the region — skip).
		if w.lockEvent(st.Call, s, true) {
			return
		}
	case *ast.GoStmt:
		// The goroutine body runs concurrently, NOT under these locks;
		// only the argument expressions evaluate here.
		for _, a := range st.Call.Args {
			w.expr(a, s)
		}
	case *ast.SendStmt:
		w.expr(st.Chan, s)
		w.expr(st.Value, s)
	case *ast.IncDecStmt:
		w.expr(st.X, s)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.expr(r, s)
		}
		s.left = true
	case *ast.BranchStmt:
		if st.Tok == token.BREAK && st.Label == nil {
			w.joinBreak(s)
		}
		s.left = st.Tok == token.BREAK || st.Tok == token.CONTINUE
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init, s)
		}
		w.expr(st.Cond, s)
		then := s.clone()
		els := s.clone()
		w.stmts(st.Body.List, then)
		if st.Else != nil {
			w.stmt(st.Else, els)
		}
		then.merge(els)
		*s = *then
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, s)
		}
		if st.Tag != nil {
			w.expr(st.Tag, s)
		}
		w.clauses(st.Body.List, s)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, s)
		}
		w.clauses(st.Body.List, s)
	case *ast.SelectStmt:
		w.clauses(st.Body.List, s)
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init, s)
		}
		if st.Cond != nil {
			w.expr(st.Cond, s)
		}
		body := s.clone()
		w.breaks = append(w.breaks, nil)
		w.stmts(st.Body.List, body)
		if st.Post != nil {
			w.stmt(st.Post, body)
		}
		s.merge(body)
		w.mergeBreaks(s)
	case *ast.RangeStmt:
		w.expr(st.X, s)
		body := s.clone()
		w.breaks = append(w.breaks, nil)
		w.stmts(st.Body.List, body)
		s.merge(body)
		w.mergeBreaks(s)
	case *ast.BlockStmt:
		w.stmts(st.List, s)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, s)
	}
}

func (w *lockWalker) clauses(clauses []ast.Stmt, s *lockState) {
	w.breaks = append(w.breaks, nil)
	var arms []*lockState
	for _, c := range clauses {
		arm := s.clone()
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.expr(e, arm)
			}
			w.stmts(cc.Body, arm)
		case *ast.CommClause:
			if cc.Comm != nil {
				w.stmt(cc.Comm, arm)
			}
			w.stmts(cc.Body, arm)
		}
		arms = append(arms, arm)
	}
	for _, arm := range arms {
		s.merge(arm)
	}
	w.mergeBreaks(s)
}

// joinBreak adds the path s to the innermost breakable statement's breaks.
func (w *lockWalker) joinBreak(s *lockState) {
	if len(w.breaks) == 0 {
		return
	}
	top := &w.breaks[len(w.breaks)-1]
	if *top == nil {
		*top = s.clone()
	} else {
		(*top).merge(s)
	}
}

// mergeBreaks pops the innermost breakable statement and merges the paths
// its breaks left on into s, the path after it.
func (w *lockWalker) mergeBreaks(s *lockState) {
	b := w.breaks[len(w.breaks)-1]
	w.breaks = w.breaks[:len(w.breaks)-1]
	if b != nil {
		s.merge(b)
	}
}

// isPanic reports whether e calls the builtin panic.
func (w *lockWalker) isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, builtin := w.pass.TypesInfo.Uses[id].(*types.Builtin)
	return builtin && id.Name == "panic"
}

// expr scans an expression for lock events and, inside ramonly regions,
// I/O calls. Function literals are skipped: their bodies run when
// invoked, and an invocation appears as its own call expression.
func (w *lockWalker) expr(e ast.Expr, s *lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if w.lockEvent(call, s, false) {
			return true
		}
		w.checkCall(call, s)
		return true
	})
}

// lockEvent handles x.f.Lock/RLock/Unlock/RUnlock where f is a
// //shhc:lock-marked field, updating state and checking rank order.
// Reports true when the call was a lock operation on a marked field.
func (w *lockWalker) lockEvent(call *ast.CallExpr, s *lockState, deferred bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return false
	}
	// The receiver must be a selector naming a marked mutex field.
	fieldSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fsel, ok := w.pass.TypesInfo.Selections[fieldSel]
	if !ok || fsel.Kind() != types.FieldVal {
		return false
	}
	key := analysis.FieldKey(fsel.Recv(), fieldSel.Sel.Name)
	m := w.pass.Markers.Get(key)
	if m == nil || !m.Lock {
		return false
	}
	display := exprString(fieldSel)
	switch method {
	case "Lock", "RLock", "TryLock", "TryRLock":
		if m.Rank > 0 {
			for _, h := range s.held {
				if h.rank > 0 && m.Rank < h.rank {
					w.pass.Reportf(call.Pos(),
						"acquiring %s (rank %d) while holding %s (rank %d) violates the declared lock order",
						display, m.Rank, h.display, h.rank)
				}
			}
		}
		s.held[key] = &heldLock{key: key, display: display, ramonly: m.RAMOnly, rank: m.Rank, pos: call.Pos()}
	case "Unlock", "RUnlock":
		if !deferred {
			delete(s.held, key)
		}
		// A deferred unlock keeps the region open to function exit.
	}
	return true
}

// checkCall reports an I/O-reaching call made inside a ramonly region.
func (w *lockWalker) checkCall(call *ast.CallExpr, s *lockState) {
	var ramonly *heldLock
	for _, h := range s.held {
		if h.ramonly {
			ramonly = h
			break
		}
	}
	if ramonly == nil {
		return
	}
	callee := analysis.Callee(w.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	if ioflow.FuncIsIO(w.pass, callee) {
		w.pass.Reportf(call.Pos(),
			"call to %s may perform I/O while %s (//shhc:lock ramonly) is held",
			callee.FullName(), ramonly.display)
	}
}

// exprString renders a selector chain for messages (x.mu, s.stripes[i].mu
// degrades to the selector part).
func exprString(e ast.Expr) string {
	switch ex := e.(type) {
	case *ast.Ident:
		return ex.Name
	case *ast.SelectorExpr:
		return exprString(ex.X) + "." + ex.Sel.Name
	case *ast.IndexExpr:
		return exprString(ex.X) + "[...]"
	case *ast.UnaryExpr:
		return exprString(ex.X)
	case *ast.ParenExpr:
		return exprString(ex.X)
	case *ast.CallExpr:
		return exprString(ex.Fun) + "()"
	case *ast.StarExpr:
		return exprString(ex.X)
	}
	return "?"
}
