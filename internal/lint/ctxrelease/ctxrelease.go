// Package ctxrelease proves that every checkout from a pooled
// resource — evaluation-context worlds (core's compiled.checkout),
// evaluation cursors (EvalCursor/EvalCursorTrace) and span recorders
// (obsv.NewTrace) — is released on every path. At run time a leaked
// context is silently garbage-collected, and the pool's books (Misses -
// Drops - Resident, zero at quiescence) show it only after the fact;
// this analyzer catches the leak at compile time.
//
// The check is flow-insensitive to find acquisitions, then
// path-refined: each function body is walked as an abstract
// interpretation with a live-resource set that forks at branches.
// A resource dies — stops needing a release on the current path —
// when it is
//
//   - released: Close/release/ReleaseTrace called with it (directly,
//     deferred, or inside a closure — the closure then owns it)
//   - transferred: returned, stored into a struct/map/slot, or passed
//     to any non-release call (ownership moves with the value)
//   - nil: on the error side of the `res, err :=` guard, or the nil
//     side of an explicit nil check
//
// A resource still live at a return (or at fallthrough function end)
// is reported at that exit. Discarding an acquisition's result (blank
// identifier or bare expression statement) is reported immediately.
package ctxrelease

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "ctxrelease",
	Doc:  "pooled contexts, cursors and traces must be released on all paths, including error returns",
	Run:  run,
}

// An acquirer describes one pool-checkout function: who declares it,
// which result is the resource, and which call names release it.
type acquirer struct {
	pkg      string // suffix of the declaring package path
	fn       string
	result   int
	releases []string
	what     string
}

var acquirers = []acquirer{
	{pkg: "core", fn: "checkout", result: 0, releases: []string{"release"}, what: "pooled context"},
	{pkg: "core", fn: "EvalCursor", result: 0, releases: []string{"Close"}, what: "cursor"},
	{pkg: "core", fn: "EvalCursorTrace", result: 0, releases: []string{"Close"}, what: "cursor"},
	{pkg: "obsv", fn: "NewTrace", result: 0, releases: []string{"ReleaseTrace", "Release"}, what: "trace"},
}

func run(pass *lint.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w := &walker{pass: pass, tracked: map[types.Object]*tracked{}}
				w.walkFunc(fd.Body)
			}
		}
	}
	return nil, nil
}

type tracked struct {
	acq    acquirer
	acqPos token.Pos
	errObj types.Object // companion error variable, if any
}

type walker struct {
	pass    *lint.Pass
	tracked map[types.Object]*tracked
}

// live is the per-path set of unreleased resources.
type live map[types.Object]bool

func (l live) clone() live {
	c := make(live, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// acquisition returns the acquirer config if call is a tracked
// checkout.
func (w *walker) acquisition(call *ast.CallExpr) (acquirer, bool) {
	var name string
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		obj = w.pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		name = fun.Name
		obj = w.pass.TypesInfo.Uses[fun]
	default:
		return acquirer{}, false
	}
	if obj == nil || obj.Pkg() == nil {
		return acquirer{}, false
	}
	for _, a := range acquirers {
		if a.fn == name && lint.PathHasSuffix(obj.Pkg().Path(), a.pkg) {
			return a, true
		}
	}
	return acquirer{}, false
}

func (w *walker) walkFunc(body *ast.BlockStmt) {
	l := live{}
	w.walkStmts(body.List, l)
	if !terminates(body) {
		w.reportLive(body.Rbrace, l, "function end")
	}
}

func (w *walker) walkStmts(stmts []ast.Stmt, l live) {
	for _, s := range stmts {
		w.walkStmt(s, l)
	}
}

func (w *walker) walkStmt(s ast.Stmt, l live) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkStmts(s.List, l)
	case *ast.AssignStmt:
		w.walkAssign(s, l)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					w.walkValueSpec(vs, l)
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if a, ok := w.acquisition(call); ok {
				w.pass.Reportf(call.Pos(), "%s from %s.%s is discarded: the checkout can never be released", a.what, a.pkg, a.fn)
				w.consumeArgs(call, l)
				return
			}
		}
		w.consumeExpr(s.X, l)
	case *ast.DeferStmt:
		// A deferred release covers every subsequent path.
		w.consumeExpr(s.Call, l)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.consumeExpr(r, l) // returning transfers ownership
		}
		w.reportLive(s.Return, l, "this return")
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, l)
		}
		w.consumeExpr(s.Cond, l)
		then := l.clone()
		els := l.clone()
		w.applyGuard(s.Cond, then, els)
		w.walkStmts(s.Body.List, then)
		elseTerm := false
		if s.Else != nil {
			w.walkStmt(s.Else, els)
			elseTerm = terminatesStmt(s.Else)
		}
		switch {
		case terminates(s.Body) && !elseTerm:
			replace(l, els)
		case !terminates(s.Body) && elseTerm:
			replace(l, then)
		case terminates(s.Body) && elseTerm:
			// Both exit: continuing state is unreachable; keep empty.
			replace(l, live{})
		default:
			union := then
			for k := range els {
				union[k] = true
			}
			replace(l, union)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, l)
		}
		if s.Cond != nil {
			w.consumeExpr(s.Cond, l)
		}
		body := l.clone()
		w.walkStmts(s.Body.List, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
		// Releases inside the body are honored (zero-iteration loops
		// over a just-acquired resource do not occur in this codebase;
		// preferring silence over a false positive here).
		propagateDeaths(l, body)
	case *ast.RangeStmt:
		w.consumeExpr(s.X, l)
		body := l.clone()
		w.walkStmts(s.Body.List, body)
		propagateDeaths(l, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, l)
		}
		if s.Tag != nil {
			w.consumeExpr(s.Tag, l)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.consumeExpr(e, l)
			}
			w.walkStmts(cc.Body, l.clone())
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			w.walkStmts(c.(*ast.CaseClause).Body, l.clone())
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			w.walkStmts(c.(*ast.CommClause).Body, l.clone())
		}
	case *ast.GoStmt:
		w.consumeExpr(s.Call, l)
	case *ast.SendStmt:
		w.consumeExpr(s.Chan, l)
		w.consumeExpr(s.Value, l)
	case *ast.IncDecStmt:
		w.consumeExpr(s.X, l)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, l)
	}
}

func replace(dst, src live) {
	for k := range dst {
		delete(dst, k)
	}
	for k := range src {
		dst[k] = true
	}
}

// propagateDeaths marks resources dead in l that died during a loop
// body walk.
func propagateDeaths(l, body live) {
	for k := range l {
		if !body[k] {
			delete(l, k)
		}
	}
}

// applyGuard refines branch states for `err != nil` / `res == nil`
// style conditions: on the side where the acquisition failed, the
// resource is nil and needs no release.
func (w *walker) applyGuard(cond ast.Expr, then, els live) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	var operand ast.Expr
	switch {
	case isNil(be.X):
		operand = be.Y
	case isNil(be.Y):
		operand = be.X
	default:
		return
	}
	id, ok := operand.(*ast.Ident)
	if !ok {
		return
	}
	obj := w.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	nilSide, nonNilSide := then, els
	if be.Op == token.NEQ {
		// `x != nil` puts the nil world in the else branch for a
		// resource check — but for an *error* check the then branch
		// is the failure path where the resource is nil.
		nilSide, nonNilSide = els, then
	}
	_ = nonNilSide
	if w.tracked[obj] != nil {
		// Explicit nil check on the resource itself.
		delete(nilSide, obj)
		return
	}
	// Error companion: the resource paired with this err var is nil
	// on the error-non-nil side.
	for resObj, tr := range w.tracked {
		if tr.errObj == obj {
			errSide := then
			if be.Op == token.EQL {
				errSide = els
			}
			delete(errSide, resObj)
		}
	}
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// walkAssign registers acquisitions and consumes everything else.
func (w *walker) walkAssign(s *ast.AssignStmt, l live) {
	if len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
			if a, ok := w.acquisition(call); ok {
				w.consumeArgs(call, l)
				w.registerAcquisition(s.Lhs, call, a, l)
				return
			}
		}
	}
	for _, r := range s.Rhs {
		w.consumeExpr(r, l)
	}
	for _, lhs := range s.Lhs {
		if _, ok := lhs.(*ast.Ident); !ok {
			w.consumeExpr(lhs, l)
		}
	}
}

func (w *walker) walkValueSpec(vs *ast.ValueSpec, l live) {
	if len(vs.Values) == 1 {
		if call, ok := vs.Values[0].(*ast.CallExpr); ok {
			if a, ok := w.acquisition(call); ok {
				w.consumeArgs(call, l)
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				w.registerAcquisition(lhs, call, a, l)
				return
			}
		}
	}
	for _, v := range vs.Values {
		w.consumeExpr(v, l)
	}
}

func (w *walker) registerAcquisition(lhs []ast.Expr, call *ast.CallExpr, a acquirer, l live) {
	if a.result >= len(lhs) {
		return
	}
	id, ok := lhs[a.result].(*ast.Ident)
	if !ok {
		// Assigned straight into a field or slot: ownership transfers
		// to that structure's owner.
		return
	}
	if id.Name == "_" {
		w.pass.Reportf(call.Pos(), "%s from %s.%s is discarded: the checkout can never be released", a.what, a.pkg, a.fn)
		return
	}
	obj := w.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = w.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	tr := &tracked{acq: a, acqPos: call.Pos()}
	// Companion error variable for the nil-on-error guard.
	for i, other := range lhs {
		if i == a.result {
			continue
		}
		if oid, ok := other.(*ast.Ident); ok && oid.Name != "_" {
			var oobj types.Object
			if oobj = w.pass.TypesInfo.Defs[oid]; oobj == nil {
				oobj = w.pass.TypesInfo.Uses[oid]
			}
			if oobj != nil && isErrorType(oobj.Type()) {
				tr.errObj = oobj
			}
		}
	}
	w.tracked[obj] = tr
	l[obj] = true
}

// consumeExpr scans an expression: release calls kill their resource,
// any other use of a live resource transfers ownership (also killing
// it — the new owner is responsible), and closures swallow whatever
// they capture.
func (w *walker) consumeExpr(e ast.Expr, l live) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The closure owns (and is trusted to release or carry)
			// everything it captures.
			for obj := range l {
				if usesObject(w.pass, n.Body, obj) {
					delete(l, obj)
				}
			}
			return false
		case *ast.CallExpr:
			w.consumeCall(n, l)
			return false
		case *ast.Ident:
			if obj := w.pass.TypesInfo.Uses[n]; obj != nil && l[obj] {
				delete(l, obj) // ownership transfer
			}
		}
		return true
	})
}

func (w *walker) consumeCall(call *ast.CallExpr, l live) {
	name := ""
	var recv ast.Expr
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		recv = fun.X
	case *ast.Ident:
		name = fun.Name
	default:
		w.consumeExpr(call.Fun, l)
	}

	// Receiver of a method call: `cur.Close()` releases; `cur.Next()`
	// is plain use and keeps the resource live.
	if recv != nil {
		if id, ok := recv.(*ast.Ident); ok {
			if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
				if tr := w.tracked[obj]; tr != nil && l[obj] && releases(tr.acq, name) {
					delete(l, obj)
				}
			}
		} else {
			w.consumeExpr(recv, l)
		}
	}

	for _, arg := range call.Args {
		if id, ok := arg.(*ast.Ident); ok {
			if obj := w.pass.TypesInfo.Uses[id]; obj != nil && l[obj] {
				// Passed by argument: to a release (done) or to a new
				// owner (their job now). Either way this path is
				// covered.
				delete(l, obj)
				continue
			}
		}
		w.consumeExpr(arg, l)
	}
}

func (w *walker) consumeArgs(call *ast.CallExpr, l live) {
	for _, arg := range call.Args {
		w.consumeExpr(arg, l)
	}
}

func releases(a acquirer, name string) bool {
	for _, r := range a.releases {
		if r == name {
			return true
		}
	}
	return false
}

func (w *walker) reportLive(at token.Pos, l live, where string) {
	for obj := range l {
		tr := w.tracked[obj]
		if tr == nil {
			continue
		}
		w.pass.Reportf(at, "%s %q (from %s.%s at %s) is not released on %s",
			tr.acq.what, obj.Name(), tr.acq.pkg, tr.acq.fn,
			w.pass.Fset.Position(tr.acqPos), where)
	}
}

func usesObject(pass *lint.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	return terminatesStmt(b.List[len(b.List)-1])
}

func terminatesStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				return id.Name == "panic"
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				return sel.Sel.Name == "Exit" || sel.Sel.Name == "Fatal" || sel.Sel.Name == "Fatalf"
			}
		}
	case *ast.IfStmt:
		return terminates(s.Body) && s.Else != nil && terminatesStmt(s.Else)
	}
	return false
}
