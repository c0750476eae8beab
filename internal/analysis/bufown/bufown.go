// Package bufown enforces the zero-copy wire layer's ownership rule:
// every pooled buffer acquisition (wire.GetBuf, wire.ReadFrame,
// hashdb's page pool — any function marked //shhc:returns-buf) reaches
// exactly one release on every path. A release is passing the buffer
// where ownership is declared to move — a //shhc:takes-buf parameter
// (wire.PutBuf), sync.Pool.Put, or any call through a func value we
// cannot see into — storing it into a composite literal or channel (the
// rpc response handoff), or returning it (functions that do so must
// themselves be marked //shhc:returns-buf).
// Passing a buffer to an ordinary function is a borrow: pageCount(page)
// does not release the page. Whether a stored buffer is read after its
// release is not checked: the -race tests catch a pooled value kept past
// its release.
//
// The analyzer walks each function's statement structure symbolically:
// branches fork the ownership state, merges reconcile it, and every
// return (plus the fall-off end and loop-iteration boundaries) checks
// that no owned buffer is left behind. Releasing an already-released
// buffer is reported as a double release. Functions containing goto are
// skipped. Buffers whose acquisition also yielded an error value are
// only considered owned on the error-free path, mirroring the
// "non-nil exactly when the error is nil" contract of ReadFrame.
package bufown

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"shhc/internal/analysis"
)

// Analyzer is the bufown pass.
var Analyzer = &analysis.Analyzer{
	Name: "bufown",
	Doc:  "check that pooled wire/page buffers are released exactly once on every path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeFunc(pass, fd)
		}
		// Function literals are analyzed as independent ownership
		// contexts: acquisitions inside one must be released inside it
		// (or handed off); captures of outer buffers are handled
		// conservatively by the outer function's walk.
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w := newWalker(pass)
				w.walkBody(lit.Body, newState())
			}
			return true
		})
	}
	return nil
}

func analyzeFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	w := newWalker(pass)
	s := newState()
	// Parameters this function owns by contract (//shhc:takes-buf).
	if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		if m := pass.Markers.ForObject(obj); m != nil && len(m.TakesBuf) > 0 {
			owned := make(map[string]bool, len(m.TakesBuf))
			for _, name := range m.TakesBuf {
				owned[name] = true
			}
			for _, fld := range fd.Type.Params.List {
				for _, name := range fld.Names {
					if owned[name.Name] {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							w.track(s, v, name.Pos(), nil)
						}
					}
				}
			}
		}
	}
	w.walkBody(fd.Body, s)
}

// status is a buffer's ownership on one path.
type status uint8

const (
	stOwned    status = iota // must be released before the path ends
	stReleased               // released; a second release is a bug
	stNilSafe                // statically nil on this path (error branch); releasing or not are both fine
	stMaybe                  // paths disagree or tracking was lost; silent
)

func mergeStatus(a, b status) status {
	switch {
	case a == b:
		return a
	case a == stNilSafe:
		return b
	case b == stNilSafe:
		return a
	default:
		return stMaybe
	}
}

type trackedVar struct {
	obj        *types.Var
	acquiredAt token.Pos
	errVar     *types.Var // error result from the acquiring statement
}

type state struct {
	st         map[*types.Var]status
	deferred   map[*types.Var]bool // release registered via defer
	terminated bool
}

func newState() *state {
	return &state{st: make(map[*types.Var]status), deferred: make(map[*types.Var]bool)}
}

func (s *state) clone() *state {
	c := newState()
	for k, v := range s.st {
		c.st[k] = v
	}
	for k, v := range s.deferred {
		c.deferred[k] = v
	}
	c.terminated = s.terminated
	return c
}

// merge folds other into s (a join point where both paths continue).
func (s *state) merge(other *state) {
	if other.terminated {
		return
	}
	if s.terminated {
		s.st = other.st
		s.deferred = other.deferred
		s.terminated = false
		return
	}
	for k, v := range other.st {
		if cur, ok := s.st[k]; ok {
			s.st[k] = mergeStatus(cur, v)
		} else {
			s.st[k] = v
		}
	}
	for k := range s.st {
		if _, ok := other.st[k]; !ok {
			// Acquired on only one arm; the arm's own exits checked it.
		}
	}
	for k, v := range other.deferred {
		if s.deferred[k] != v {
			s.st[k] = stMaybe
			delete(s.deferred, k)
		}
	}
}

// owns reports whether v is held, undeferred, on this path. A buffer
// acquired only on an arm that has since terminated is absent from the
// state, not owned.
func (s *state) owns(v *types.Var) bool {
	st, ok := s.st[v]
	return ok && st == stOwned && !s.deferred[v]
}

type loopCtx struct {
	// innerVars are buffers acquired inside the current iteration; a
	// `continue` that leaves one owned loses it.
	innerVars map[*types.Var]bool
	breaks    []*state
}

type walker struct {
	pass     *analysis.Pass
	info     *types.Info
	tracked  map[*types.Var]*trackedVar
	loops    []*loopCtx
	reported map[string]bool
}

func newWalker(pass *analysis.Pass) *walker {
	return &walker{
		pass:     pass,
		info:     pass.TypesInfo,
		tracked:  make(map[*types.Var]*trackedVar),
		reported: make(map[string]bool),
	}
}

func (w *walker) track(s *state, v *types.Var, at token.Pos, errVar *types.Var) {
	w.tracked[v] = &trackedVar{obj: v, acquiredAt: at, errVar: errVar}
	s.st[v] = stOwned
	if len(w.loops) > 0 {
		w.loops[len(w.loops)-1].innerVars[v] = true
	}
}

func (w *walker) reportOnce(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.pass.Reportf(pos, "%s", msg)
}

// release marks v released at pos, reporting a double release.
func (w *walker) release(s *state, v *types.Var, pos token.Pos) {
	if cur, ok := s.st[v]; ok && cur == stReleased {
		w.reportOnce(pos, "pooled buffer %q may be released twice (earlier release on this path)", v.Name())
	}
	s.st[v] = stReleased
}

// exitCheck reports owned buffers at a path exit.
func (w *walker) exitCheck(s *state, exitPos token.Pos, where string) {
	for v, st := range s.st {
		if st != stOwned || s.deferred[v] {
			continue
		}
		tv := w.tracked[v]
		line := w.pass.Fset.Position(exitPos).Line
		w.reportOnce(tv.acquiredAt, "pooled buffer %q is not released on %s at line %d (leak)", v.Name(), where, line)
	}
}

func (w *walker) walkBody(body *ast.BlockStmt, s *state) {
	if analysis.FuncHasGoto(body) {
		return
	}
	w.walkStmts(body.List, s)
	if !s.terminated {
		w.exitCheck(s, body.Rbrace, "the function's fall-through exit")
	}
}

func (w *walker) walkStmts(stmts []ast.Stmt, s *state) {
	for _, st := range stmts {
		if s.terminated {
			return
		}
		w.stmt(st, s)
	}
}

func (w *walker) stmt(stmt ast.Stmt, s *state) {
	switch st := stmt.(type) {
	case *ast.AssignStmt:
		w.assign(st, s)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					w.define(vs.Names, vs.Values, s)
				}
			}
		}
	case *ast.ExprStmt:
		w.scanExpr(st.X, s, nil)
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if w.isReturnsBuf(call) {
				w.reportOnce(call.Pos(), "pooled buffer result is discarded (leak)")
			}
			if name := calleeName(w.info, call); name == "panic" {
				s.terminated = true
			}
		}
	case *ast.SendStmt:
		w.scanExpr(st.Chan, s, nil)
		w.transferExpr(st.Value, s)
	case *ast.IncDecStmt:
		w.scanExpr(st.X, s, nil)
	case *ast.DeferStmt:
		w.deferStmt(st, s)
	case *ast.GoStmt:
		w.scanExpr(st.Call, s, nil)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.transferExpr(r, s)
		}
		w.exitCheck(s, st.Pos(), "the return")
		s.terminated = true
	case *ast.IfStmt:
		w.ifStmt(st, s)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, s)
		}
		if st.Tag != nil {
			w.scanExpr(st.Tag, s, nil)
		}
		w.caseClauses(st.Body.List, s, hasDefaultClause(st.Body.List))
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, s)
		}
		w.caseClauses(st.Body.List, s, hasDefaultClause(st.Body.List))
	case *ast.SelectStmt:
		w.caseClauses(st.Body.List, s, false)
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init, s)
		}
		if st.Cond != nil {
			w.scanExpr(st.Cond, s, nil)
		}
		w.loop(st.Body, st.Post, s, st.Cond == nil)
	case *ast.RangeStmt:
		w.scanExpr(st.X, s, nil)
		w.loop(st.Body, nil, s, false)
	case *ast.BlockStmt:
		w.walkStmts(st.List, s)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, s)
	case *ast.BranchStmt:
		w.branch(st, s)
	case *ast.EmptyStmt:
	}
}

func hasDefaultClause(clauses []ast.Stmt) bool {
	for _, c := range clauses {
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				return true
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				return true
			}
		}
	}
	return false
}

// caseClauses walks each clause on a clone and merges the survivors.
// When no default exists, the fall-past path (original state) joins too.
func (w *walker) caseClauses(clauses []ast.Stmt, s *state, exhaustive bool) {
	var arms []*state
	for _, c := range clauses {
		arm := s.clone()
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.scanExpr(e, arm, nil)
			}
			w.walkStmts(cc.Body, arm)
		case *ast.CommClause:
			if cc.Comm != nil {
				w.stmt(cc.Comm, arm)
			}
			w.walkStmts(cc.Body, arm)
		}
		arms = append(arms, arm)
	}
	if len(arms) == 0 {
		return
	}
	out := arms[0]
	for _, arm := range arms[1:] {
		out.merge(arm)
	}
	if exhaustive {
		*s = *out
	} else {
		s.merge(out)
	}
}

func (w *walker) loop(body *ast.BlockStmt, post ast.Stmt, s *state, infinite bool) {
	ctx := &loopCtx{innerVars: make(map[*types.Var]bool)}
	w.loops = append(w.loops, ctx)
	iter := s.clone()
	w.walkStmts(body.List, iter)
	if post != nil && !iter.terminated {
		w.stmt(post, iter)
	}
	// End of an iteration: buffers acquired inside it and still owned are
	// lost when the next iteration shadows them.
	if !iter.terminated {
		for v := range ctx.innerVars {
			if iter.owns(v) {
				tv := w.tracked[v]
				w.reportOnce(tv.acquiredAt, "pooled buffer %q is not released by the end of the loop iteration (leak)", v.Name())
			}
		}
	}
	w.loops = w.loops[:len(w.loops)-1]

	// Post-loop state: the pre-state (zero iterations), the body-exit
	// state, and every break. An infinite loop is only left via break.
	var out *state
	if infinite {
		if len(ctx.breaks) == 0 {
			s.terminated = true
			return
		}
		out = ctx.breaks[0]
		for _, b := range ctx.breaks[1:] {
			out.merge(b)
		}
	} else {
		out = s.clone()
		out.merge(iter)
		for _, b := range ctx.breaks {
			out.merge(b)
		}
	}
	// Iteration-local buffers do not survive the loop.
	for v := range ctx.innerVars {
		delete(out.st, v)
		delete(out.deferred, v)
	}
	*s = *out
}

func (w *walker) branch(st *ast.BranchStmt, s *state) {
	if len(w.loops) == 0 || st.Label != nil {
		// Labeled jumps (and stray branches) lose precision: stop
		// tracking everything rather than guess.
		for v := range s.st {
			s.st[v] = stMaybe
		}
		s.terminated = true
		return
	}
	ctx := w.loops[len(w.loops)-1]
	switch st.Tok {
	case token.BREAK:
		ctx.breaks = append(ctx.breaks, s.clone())
	case token.CONTINUE:
		for v := range ctx.innerVars {
			if s.owns(v) {
				tv := w.tracked[v]
				line := w.pass.Fset.Position(st.Pos()).Line
				w.reportOnce(tv.acquiredAt, "pooled buffer %q is not released before the continue at line %d (leak)", v.Name(), line)
			}
		}
	}
	s.terminated = true
}

func (w *walker) ifStmt(st *ast.IfStmt, s *state) {
	if st.Init != nil {
		w.stmt(st.Init, s)
	}
	w.scanExpr(st.Cond, s, nil)

	then := s.clone()
	els := s.clone()
	// Error-correlation: on `if err != nil`, buffers acquired alongside
	// err are nil in the then-branch; on `if err == nil`, in the else.
	// Direct nil-checks of a tracked buffer behave the same way.
	if obj, isNotNil, ok := nilCheck(w.info, st.Cond); ok {
		nilArm := then
		if !isNotNil {
			nilArm = els
		}
		for v, tv := range w.tracked {
			if tv.errVar == obj || tv.obj == obj {
				if cur, okk := nilArm.st[v]; okk && cur == stOwned {
					nilArm.st[v] = stNilSafe
				}
			}
		}
	}
	w.walkStmts(st.Body.List, then)
	if st.Else != nil {
		w.stmt(st.Else, els)
	}
	then.merge(els)
	*s = *then
}

// nilCheck matches `x != nil` / `x == nil` (possibly as the left operand
// of || or && — `if bp == nil || cap(*bp) > max` still correlates).
func nilCheck(info *types.Info, cond ast.Expr) (obj types.Object, isNotNil, ok bool) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.NEQ, token.EQL:
			var id *ast.Ident
			if isNilIdent(info, e.Y) {
				id, _ = ast.Unparen(e.X).(*ast.Ident)
			} else if isNilIdent(info, e.X) {
				id, _ = ast.Unparen(e.Y).(*ast.Ident)
			}
			if id == nil {
				return nil, false, false
			}
			return info.Uses[id], e.Op == token.NEQ, true
		case token.LOR, token.LAND:
			return nilCheck(info, e.X)
		}
	}
	return nil, false, false
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

func (w *walker) deferStmt(st *ast.DeferStmt, s *state) {
	// defer release(v): v is released at every later exit — but only when
	// the deferred call actually takes ownership (deferring a borrowing
	// helper must not mask a leak).
	w.deferredReleases(st.Call, s)
	// defer func() { ... PutBuf(v) ... }(): scan the literal body for
	// releases of outer tracked buffers.
	if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				w.deferredReleases(call, s)
			}
			return true
		})
	}
}

// deferredReleases marks tracked buffers passed in owning positions of
// call as released-on-exit.
func (w *walker) deferredReleases(call *ast.CallExpr, s *state) {
	if calleeName(w.info, call) != "" || w.isConversion(call) {
		return
	}
	f := analysis.Callee(w.info, call)
	owning := w.owningParams(f)
	for i, arg := range call.Args {
		if f != nil && !owning[i] {
			continue
		}
		v := w.trackedIdent(arg)
		if v == nil {
			if conv, ok := ast.Unparen(arg).(*ast.CallExpr); ok && w.isConversion(conv) && len(conv.Args) == 1 {
				v = w.trackedIdent(conv.Args[0])
			}
		}
		if v != nil {
			s.deferred[v] = true
		}
	}
}

func (w *walker) define(names []*ast.Ident, values []ast.Expr, s *state) {
	if len(values) == 1 {
		if call, ok := ast.Unparen(values[0]).(*ast.CallExpr); ok && w.isReturnsBuf(call) {
			w.acquire(names, call, s)
			return
		}
	}
	for _, v := range values {
		w.scanExpr(v, s, nil)
	}
}

func (w *walker) assign(st *ast.AssignStmt, s *state) {
	// Acquisition: `v := GetBuf(...)` or `f, bp, err := ReadFrame(...)`.
	if len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok && w.isReturnsBuf(call) {
			idents := make([]*ast.Ident, 0, len(st.Lhs))
			allIdents := true
			for _, l := range st.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					idents = append(idents, id)
				} else {
					allIdents = false
				}
			}
			if allIdents {
				w.scanCallArgs(call, s)
				w.acquire(idents, call, s)
				return
			}
		}
	}
	for _, r := range st.Rhs {
		w.scanExpr(r, s, nil)
	}
	for i, l := range st.Lhs {
		switch lhs := ast.Unparen(l).(type) {
		case *ast.Ident:
			obj := w.info.Defs[lhs]
			if obj == nil {
				obj = w.info.Uses[lhs]
			}
			if v, ok := obj.(*types.Var); ok {
				// Reassigning a tracked buffer loses tracking; reassigning
				// an associated error var breaks its nil-correlation.
				if _, isTracked := w.tracked[v]; isTracked {
					if s.st[v] == stOwned {
						w.reportOnce(lhs.Pos(), "pooled buffer %q is overwritten while still owned (leak)", v.Name())
					}
					s.st[v] = stMaybe
				}
				for _, tv := range w.tracked {
					if tv.errVar == v {
						tv.errVar = nil
					}
				}
			}
		default:
			// Storing a tracked buffer into a field, slice, or map is an
			// ownership handoff.
			if i < len(st.Rhs) {
				w.transferExpr(st.Rhs[i], s)
			}
			w.scanExpr(l, s, nil)
		}
	}
}

// acquire registers the buffer-typed results of a returns-buf call.
func (w *walker) acquire(names []*ast.Ident, call *ast.CallExpr, s *state) {
	sig := w.calleeSig(call)
	if sig == nil {
		return
	}
	results := sig.Results()
	var errVar *types.Var
	if len(names) == results.Len() {
		for i := 0; i < results.Len(); i++ {
			if isErrorType(results.At(i).Type()) {
				if obj, ok := w.identVar(names[i]); ok {
					errVar = obj
				}
			}
		}
	}
	for i, name := range names {
		var rt types.Type
		if results.Len() == len(names) {
			rt = results.At(i).Type()
		} else if results.Len() == 1 {
			rt = results.At(0).Type()
		}
		if rt == nil || !analysis.IsBufType(rt) {
			continue
		}
		if name.Name == "_" {
			w.reportOnce(name.Pos(), "pooled buffer result is discarded (leak)")
			continue
		}
		if v, ok := w.identVar(name); ok {
			// Re-acquiring into a variable that still owns a buffer drops
			// the old one with no release.
			if cur, tracked := s.st[v]; tracked && cur == stOwned {
				w.reportOnce(name.Pos(), "pooled buffer %q is overwritten while still owned (leak)", v.Name())
			}
			w.track(s, v, name.Pos(), errVar)
		}
	}
}

func (w *walker) identVar(id *ast.Ident) (*types.Var, bool) {
	obj := w.info.Defs[id]
	if obj == nil {
		obj = w.info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	return v, ok
}

// trackedIdent returns the tracked variable an expression names, or nil.
func (w *walker) trackedIdent(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := w.info.Uses[id].(*types.Var); ok {
		if _, tracked := w.tracked[v]; tracked {
			return v
		}
	}
	return nil
}

// transferExpr handles an expression position that takes ownership
// (return value, send value, stored RHS, owning call argument): naming a
// tracked buffer there releases it; a conversion passes the context
// through; otherwise the expression is scanned normally.
func (w *walker) transferExpr(e ast.Expr, s *state) {
	if v := w.trackedIdent(e); v != nil {
		w.release(s, v, e.Pos())
		return
	}
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if w.isConversion(call) && len(call.Args) == 1 {
			w.transferExpr(call.Args[0], s)
			return
		}
		if w.isReturnsBuf(call) {
			// Acquired and handed off in one step — legal; the new owner
			// releases it.
			w.scanExpr(call.Fun, s, nil)
			w.scanCallArgs(call, s)
			return
		}
	}
	w.scanExpr(e, s, nil)
}

// scanCallArgs classifies each argument: passing a buffer transfers
// ownership only where the callee declares it does — a //shhc:takes-buf
// parameter, sync.Pool.Put, or a callee we cannot resolve (a func value;
// trust the hand-off rather than invent a leak). Every other argument is
// a borrow: the caller still owns the buffer afterwards, so a read-only
// helper like pageCount(page) does not count as a release.
func (w *walker) scanCallArgs(call *ast.CallExpr, s *state) {
	if calleeName(w.info, call) != "" || w.isConversion(call) {
		// Builtins and conversions never take ownership here; a conversion
		// in a transfer position is handled by transferExpr.
		for _, arg := range call.Args {
			w.scanExpr(arg, s, nil)
		}
		return
	}
	f := analysis.Callee(w.info, call)
	owning := w.owningParams(f)
	for i, arg := range call.Args {
		if f == nil || owning[i] {
			w.transferExpr(arg, s)
		} else {
			w.scanExpr(arg, s, nil)
		}
	}
}

// isConversion reports whether the "call" is actually a type conversion.
func (w *walker) isConversion(call *ast.CallExpr) bool {
	tv, ok := w.info.Types[call.Fun]
	return ok && tv.IsType()
}

// owningParams returns the set of parameter indices through which f takes
// buffer ownership.
func (w *walker) owningParams(f *types.Func) map[int]bool {
	if f == nil {
		return nil
	}
	if analysis.ObjKey(f) == "sync.Pool.Put" {
		return map[int]bool{0: true}
	}
	m := w.pass.Markers.ForObject(f)
	if m == nil || len(m.TakesBuf) == 0 {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return nil
	}
	idx := make(map[int]bool)
	for i := 0; i < sig.Params().Len(); i++ {
		for _, name := range m.TakesBuf {
			if sig.Params().At(i).Name() == name {
				idx[i] = true
			}
		}
	}
	return idx
}

// scanExpr finds transfers and drops inside an arbitrary expression.
// skip suppresses re-processing of a call already handled as an
// acquisition.
func (w *walker) scanExpr(e ast.Expr, s *state, skip *ast.CallExpr) {
	if e == nil {
		return
	}
	switch ex := e.(type) {
	case *ast.CallExpr:
		if ex == skip {
			return
		}
		w.scanExpr(ex.Fun, s, skip)
		w.scanCallArgs(ex, s)
		if w.isReturnsBuf(ex) {
			// A returns-buf call in expression position drops its result
			// unless it feeds an acquisition (handled by assign/define).
			w.reportOnce(ex.Pos(), "pooled buffer result is discarded (leak)")
		}
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.transferExpr(kv.Value, s)
			} else {
				w.transferExpr(el, s)
			}
		}
	case *ast.FuncLit:
		// A non-deferred closure capturing a tracked buffer may release
		// it at an unknowable time: stop tracking captured buffers.
		ast.Inspect(ex.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := w.info.Uses[id].(*types.Var); ok {
					if _, tracked := w.tracked[v]; tracked {
						s.st[v] = stMaybe
					}
				}
			}
			return true
		})
	case *ast.UnaryExpr:
		if ex.Op == token.AND {
			if v := w.trackedIdent(ex.X); v != nil {
				s.st[v] = stMaybe // address escapes; give up
				return
			}
		}
		w.scanExpr(ex.X, s, skip)
	case *ast.BinaryExpr:
		w.scanExpr(ex.X, s, skip)
		w.scanExpr(ex.Y, s, skip)
	case *ast.ParenExpr:
		w.scanExpr(ex.X, s, skip)
	case *ast.StarExpr:
		w.scanExpr(ex.X, s, skip)
	case *ast.SelectorExpr:
		w.scanExpr(ex.X, s, skip)
	case *ast.IndexExpr:
		w.scanExpr(ex.X, s, skip)
		w.scanExpr(ex.Index, s, skip)
	case *ast.SliceExpr:
		w.scanExpr(ex.X, s, skip)
		w.scanExpr(ex.Low, s, skip)
		w.scanExpr(ex.High, s, skip)
		w.scanExpr(ex.Max, s, skip)
	case *ast.TypeAssertExpr:
		w.scanExpr(ex.X, s, skip)
	case *ast.KeyValueExpr:
		w.scanExpr(ex.Value, s, skip)
	}
}

func (w *walker) calleeSig(call *ast.CallExpr) *types.Signature {
	if f := analysis.Callee(w.info, call); f != nil {
		if sig, ok := f.Type().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// isReturnsBuf reports whether the call's callee is marked
// //shhc:returns-buf.
func (w *walker) isReturnsBuf(call *ast.CallExpr) bool {
	f := analysis.Callee(w.info, call)
	if f == nil {
		return false
	}
	m := w.pass.Markers.ForObject(f)
	return m != nil && m.ReturnsBuf
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return id.Name
		}
	}
	return ""
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
