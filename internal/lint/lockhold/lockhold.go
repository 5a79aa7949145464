// Package lockhold encodes the lock discipline of the serving path:
// the mutexes guarding store chains, the compiled query cache, the
// context pool and service metrics are all short-hold spinners on the
// hot path, so nothing slow or re-entrant may happen under one. While
// such a mutex is held the analyzer forbids
//
//   - channel operations (send, receive, select, range-over-channel)
//   - time.Sleep and any call into net or net/http
//   - acquiring another tracked lock (the -race churn hammers only
//     probe this probabilistically — here it is structural). The one
//     sanctioned order, a store chain's writer queue before its
//     generation table in Patch's publish, carries an ignore directive. (The walk is
//     per function: it does not see the query cache calling
//     qcache.Evictee under its lock, whose contract covers it.)
//
// The walk is a path-sensitive abstract interpretation of each
// function body: branches fork the held-set, and a deferred Unlock
// keeps the lock held to function end (by design — code after it is
// still under the lock).
package lockhold

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"repro/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "lockhold",
	Doc:  "no blocking operation or nested tracked-lock acquisition while a store/qcache/service/core mutex is held",
	Run:  run,
}

// trackedPkgs are the packages whose mutexes are hot-path spinners;
// short names match linttest fixtures.
var trackedPkgs = []string{
	"internal/store", "internal/qcache", "internal/service", "internal/core",
	"store", "qcache", "service", "core",
}

func trackedPkg(path string) bool {
	for _, p := range trackedPkgs {
		if lint.PathHasSuffix(path, p) {
			return true
		}
	}
	return false
}

func run(pass *lint.Pass) (any, error) {
	if !trackedPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	w := &walker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.walkFunc(fd.Body)
			}
		}
	}
	return nil, nil
}

type walker struct {
	pass *lint.Pass
}

// held maps a lock key (the printed mutex expression, e.g. "s.mu") to
// its acquisition position.
type held map[string]token.Pos

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (h held) any() (string, token.Pos) {
	for k, v := range h {
		return k, v
	}
	return "", token.NoPos
}

// walkFunc analyzes one function body from an empty held-set. Nested
// function literals are analyzed the same way (they run on their own
// goroutine or later — the enclosing lock state does not transfer
// soundly, and a closure taking its own lock must still be checked).
func (w *walker) walkFunc(body *ast.BlockStmt) {
	w.walkStmts(body.List, held{})
}

func (w *walker) walkStmts(stmts []ast.Stmt, h held) {
	for _, s := range stmts {
		w.walkStmt(s, h)
	}
}

func (w *walker) walkStmt(s ast.Stmt, h held) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkStmts(s.List, h)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, h)
		}
		w.checkExpr(s.Cond, h)
		then := h.clone()
		w.walkStmts(s.Body.List, then)
		if s.Else != nil {
			els := h.clone()
			w.walkStmt(s.Else, els)
			// Continue with whichever branch falls through; if both
			// do, the union over-approximates (reports rather than
			// misses).
			switch {
			case terminates(s.Body) && !terminatesStmt(s.Else):
				replace(h, els)
			case !terminates(s.Body) && terminatesStmt(s.Else):
				replace(h, then)
			default:
				merged := then
				for k, v := range els {
					merged[k] = v
				}
				replace(h, merged)
			}
		} else if !terminates(s.Body) {
			for k, v := range then {
				h[k] = v
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, h)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, h)
		}
		body := h.clone()
		w.walkStmts(s.Body.List, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.checkExpr(s.X, h)
		if t := w.pass.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan && len(h) > 0 {
				k, pos := h.any()
				w.report(s.For, "range over channel", k, pos)
			}
		}
		body := h.clone()
		w.walkStmts(s.Body.List, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, h)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, h)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.checkExpr(e, h)
			}
			w.walkStmts(cc.Body, h.clone())
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, h)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			w.walkStmts(cc.Body, h.clone())
		}
	case *ast.SelectStmt:
		if len(h) > 0 {
			k, pos := h.any()
			w.report(s.Select, "select", k, pos)
		}
		for _, c := range s.Body.List {
			w.walkStmts(c.(*ast.CommClause).Body, h.clone())
		}
	case *ast.SendStmt:
		if len(h) > 0 {
			k, pos := h.any()
			w.report(s.Arrow, "channel send", k, pos)
		}
		w.checkExpr(s.Chan, h)
		w.checkExpr(s.Value, h)
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the held-set; its
		// body is checked independently via the FuncLit visit below.
		w.checkExpr(s.Call.Fun, h)
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the lock stays held for
		// the rest of the function, so nothing to clear. Other
		// deferred calls run after the critical section too.
		w.checkFuncLits(s.Call)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExpr(r, h)
		}
	case *ast.ExprStmt:
		w.checkExpr(s.X, h)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.checkExpr(r, h)
		}
		for _, l := range s.Lhs {
			w.checkExpr(l, h)
		}
	case *ast.IncDecStmt:
		w.checkExpr(s.X, h)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, h)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, h)
	}
}

func replace(dst, src held) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// checkExpr scans an expression in order, applying lock effects and
// reporting blocking operations while anything is held.
func (w *walker) checkExpr(e ast.Expr, h held) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walkFunc(n.Body) // analyzed with its own empty held-set
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(h) > 0 {
				k, pos := h.any()
				w.report(n.OpPos, "channel receive", k, pos)
			}
		case *ast.CallExpr:
			w.checkCall(n, h)
		}
		return true
	})
}

func (w *walker) checkFuncLits(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			w.walkFunc(fl.Body)
			return false
		}
		return true
	})
}

func (w *walker) checkCall(call *ast.CallExpr, h held) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name

	// Lock effects on sync mutexes owned by tracked code.
	if isMutex(w.pass.TypeOf(sel.X)) {
		key := exprString(w.pass.Fset, sel.X)
		switch name {
		case "Lock", "RLock":
			w.acquire(call.Pos(), key, h)
		case "Unlock", "RUnlock":
			delete(h, key)
		}
		return
	}

	// Blocking calls.
	if len(h) == 0 {
		return
	}
	if obj := w.pass.TypesInfo.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil {
		pkg := obj.Pkg().Path()
		if pkg == "time" && name == "Sleep" {
			k, pos := h.any()
			w.report(call.Pos(), "time.Sleep", k, pos)
		}
		if pkg == "net" || pkg == "net/http" {
			k, pos := h.any()
			w.report(call.Pos(), pkg+" call", k, pos)
		}
	}
}

func (w *walker) acquire(at token.Pos, key string, h held) {
	if prev, dup := h[key]; dup {
		w.report(at, "re-acquisition of "+key+" (self-deadlock)", key, prev)
		return
	}
	if len(h) > 0 {
		k, pos := h.any()
		w.report(at, "nested acquisition of "+key, k, pos)
	}
	h[key] = at
}

func (w *walker) report(at token.Pos, what, lock string, acquired token.Pos) {
	w.pass.Reportf(at, "%s while %s is held (acquired at %s)",
		what, lock, w.pass.Fset.Position(acquired))
}

func isMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}

// terminates reports whether a block always transfers control out
// (return, panic, os.Exit, break/continue/goto).
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
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				return fun.Sel.Name == "Exit" || fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf"
			}
		}
	case *ast.IfStmt:
		return terminates(s.Body) && s.Else != nil && terminatesStmt(s.Else)
	}
	return false
}
