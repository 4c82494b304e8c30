package main

// workspacebalance and spanbalance share one acquire/release path
// analysis. An "acquisition" is a call like mat.GetWorkspace or
// trace.Region whose result must be released (PutWorkspace / .End())
// before the function returns. The analysis is lexical rather than a full
// CFG: a return statement between an acquisition and its nearest
// covering release is reported as a leak. Deferred releases cover every
// return after the defer statement. Acquisitions whose result escapes the
// function — returned, stored into a field/slice/map, captured by a
// non-deferred closure, appended, or sent on a channel — transfer
// ownership and are skipped.

import (
	"go/ast"
	"go/token"
	"go/types"
	"math"
)

// balanceRule describes one acquire/release pairing.
type balanceRule struct {
	pkgRel   string            // module-relative package of the acquire funcs, e.g. "mat"
	acquires map[string]string // acquire func -> release func ("" with method set)
	method   string            // release method on the acquired value, e.g. "End"
	noun     string            // what leaks, for diagnostics
}

func checkWorkspaceBalance(p *Pass) {
	runBalance(p, balanceRule{
		pkgRel:   "mat",
		acquires: map[string]string{"GetWorkspace": "PutWorkspace"},
		noun:     "pooled workspace",
	})
}

func checkSpanBalance(p *Pass) {
	runBalance(p, balanceRule{
		pkgRel:   "internal/trace",
		acquires: map[string]string{"Region": ""},
		method:   "End",
		noun:     "trace span",
	})
}

func runBalance(p *Pass, rule balanceRule) {
	pkgPath := p.Mod.Path + "/" + rule.pkgRel
	if p.Pkg.ImportPath == pkgPath {
		return // the implementation package itself is exempt
	}
	for _, file := range p.Pkg.Files {
		for _, body := range funcBodies(file) {
			analyzeBalance(p, file, body, rule, pkgPath)
		}
	}
}

// acquisition is one tracked acquire whose result is bound to a local
// identifier.
type acquisition struct {
	obj     types.Object
	name    string // acquire function name, for diagnostics
	release string // expected release: "PutWorkspace" or method "End"
	pos     token.Pos
}

func analyzeBalance(p *Pass, file *ast.File, body *ast.BlockStmt, rule balanceRule, pkgPath string) {
	info := p.Pkg.Info

	// acquireName returns the matched acquire function name, or "".
	acquireName := func(call *ast.CallExpr) string {
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
			return ""
		}
		if _, ok := rule.acquires[fn.Name()]; ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				return fn.Name()
			}
		}
		return ""
	}

	var acqs []acquisition
	// Pass 1: find acquisitions bound to identifiers, and flag results
	// that are discarded outright. Nested function literals are separate
	// scopes (funcBodies visits them independently).
	walkSkippingFuncLits(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if name := acquireName(call); name != "" {
					p.reportf(file, call.Pos(), "result of %s.%s is discarded; the %s can never be released", rule.pkgRel, name, rule.noun)
				}
			}
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return
			}
			for i, rhs := range st.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				name := acquireName(call)
				if name == "" {
					continue
				}
				id, ok := st.Lhs[i].(*ast.Ident)
				if !ok {
					continue // stored straight into a field/slice: ownership escapes
				}
				if id.Name == "_" {
					p.reportf(file, call.Pos(), "result of %s.%s is discarded; the %s can never be released", rule.pkgRel, name, rule.noun)
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil {
					continue
				}
				release := rule.acquires[name]
				if rule.method != "" {
					release = rule.method
				}
				acqs = append(acqs, acquisition{obj: obj, name: name, release: release, pos: call.Pos()})
			}
		}
	})

	if len(acqs) == 0 {
		return
	}

	// Pass 2: for each acquisition, locate releases, escapes, and returns.
	for _, acq := range acqs {
		s := &balanceScan{p: p, rule: rule, pkgPath: pkgPath, acq: acq, deferPos: math.MaxInt}
		s.scanStmts(body.List, false)
		if s.escaped {
			continue
		}
		if len(s.releases) == 0 && s.deferPos == math.MaxInt {
			relName := rule.pkgRel + "." + acq.release
			if rule.method != "" {
				relName = acq.obj.Name() + "." + rule.method + "()"
			}
			p.reportf(file, acq.pos, "%s %q acquired by %s.%s is never released with %s in this function", rule.noun, acq.obj.Name(), rule.pkgRel, acq.name, relName)
			continue
		}
		for _, ret := range s.returns {
			if ret <= acq.pos {
				continue
			}
			if token.Pos(s.deferPos) < ret {
				continue // a defer placed before this return covers it
			}
			covered := false
			for _, rel := range s.releases {
				if rel > acq.pos && rel < ret {
					covered = true
					break
				}
			}
			if !covered {
				p.reportf(p.fileOf(ret), ret, "return leaks %s %q (acquired at line %d); release it before returning or use defer", rule.noun, acq.obj.Name(), p.Mod.Fset.Position(acq.pos).Line)
			}
		}
	}
}

// fileOf finds the syntax file containing pos (for suppression lookup).
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// balanceScan accumulates the release/escape/return evidence for one
// acquisition while walking its function body.
type balanceScan struct {
	p        *Pass
	rule     balanceRule
	pkgPath  string
	acq      acquisition
	releases []token.Pos // non-deferred release positions
	deferPos int         // earliest deferred-release position (MaxInt if none)
	returns  []token.Pos
	escaped  bool
}

// isRelease reports whether call releases the tracked object.
func (s *balanceScan) isRelease(call *ast.CallExpr) bool {
	info := s.p.Pkg.Info
	if s.rule.method != "" {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != s.rule.method {
			return false
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		return ok && info.ObjectOf(id) == s.acq.obj
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != s.pkgPath || fn.Name() != s.acq.release {
		return false
	}
	if len(call.Args) != 1 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.ObjectOf(id) == s.acq.obj
}

func (s *balanceScan) uses(n ast.Node) bool {
	return usesObject(s.p.Pkg.Info, n, s.acq.obj)
}

func (s *balanceScan) scanStmts(stmts []ast.Stmt, inDefer bool) {
	for _, st := range stmts {
		s.scanStmt(st, inDefer)
	}
}

func (s *balanceScan) scanStmt(st ast.Stmt, inDefer bool) {
	if s.escaped {
		return
	}
	switch n := st.(type) {
	case *ast.DeferStmt:
		s.scanDeferredCall(n.Call)
	case *ast.GoStmt:
		// A goroutine capturing the value outlives lexical reasoning.
		if s.uses(n.Call) {
			s.escaped = true
		}
	case *ast.ReturnStmt:
		s.returns = append(s.returns, n.Pos())
		if s.uses(n) {
			s.escaped = true // ownership transferred to the caller
		}
	case *ast.ExprStmt:
		s.scanExpr(n.X, inDefer)
	case *ast.SendStmt:
		if s.uses(n) {
			s.escaped = true
		}
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && s.p.Pkg.Info.ObjectOf(id) == s.acq.obj {
				s.escaped = true // aliased: `x := v` or `slot[i] = v`
				return
			}
			s.scanExpr(rhs, inDefer)
		}
		for _, lhs := range n.Lhs {
			s.scanExpr(lhs, inDefer)
		}
	case *ast.BlockStmt:
		s.scanStmts(n.List, inDefer)
	case *ast.IfStmt:
		if n.Init != nil {
			s.scanStmt(n.Init, inDefer)
		}
		s.scanExpr(n.Cond, inDefer)
		s.scanStmt(n.Body, inDefer)
		if n.Else != nil {
			s.scanStmt(n.Else, inDefer)
		}
	case *ast.ForStmt:
		if n.Init != nil {
			s.scanStmt(n.Init, inDefer)
		}
		if n.Cond != nil {
			s.scanExpr(n.Cond, inDefer)
		}
		if n.Post != nil {
			s.scanStmt(n.Post, inDefer)
		}
		s.scanStmt(n.Body, inDefer)
	case *ast.RangeStmt:
		s.scanExpr(n.X, inDefer)
		s.scanStmt(n.Body, inDefer)
	case *ast.SwitchStmt:
		if n.Init != nil {
			s.scanStmt(n.Init, inDefer)
		}
		if n.Tag != nil {
			s.scanExpr(n.Tag, inDefer)
		}
		s.scanStmt(n.Body, inDefer)
	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			s.scanStmt(n.Init, inDefer)
		}
		s.scanStmt(n.Assign, inDefer)
		s.scanStmt(n.Body, inDefer)
	case *ast.SelectStmt:
		s.scanStmt(n.Body, inDefer)
	case *ast.CaseClause:
		for _, e := range n.List {
			s.scanExpr(e, inDefer)
		}
		s.scanStmts(n.Body, inDefer)
	case *ast.CommClause:
		if n.Comm != nil {
			s.scanStmt(n.Comm, inDefer)
		}
		s.scanStmts(n.Body, inDefer)
	case *ast.LabeledStmt:
		s.scanStmt(n.Stmt, inDefer)
	case *ast.DeclStmt:
		if s.uses(n) {
			s.escaped = true // `var x = v` aliasing through a declaration
		}
	case *ast.IncDecStmt:
		s.scanExpr(n.X, inDefer)
	}
}

// scanDeferredCall handles `defer f(...)`: a direct deferred release, a
// deferred closure whose body is scanned with defer semantics, or an
// unrelated deferred call.
func (s *balanceScan) scanDeferredCall(call *ast.CallExpr) {
	if s.isRelease(call) {
		if int(call.Pos()) < s.deferPos {
			s.deferPos = int(call.Pos())
		}
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		mark := len(s.releases)
		s.scanStmts(lit.Body.List, true)
		// Releases found inside a deferred closure cover like a defer
		// placed at the closure's position.
		for _, rel := range s.releases[mark:] {
			if int(rel) < s.deferPos {
				s.deferPos = int(call.Pos())
			}
		}
		s.releases = s.releases[:mark]
		return
	}
	// Any other deferred call runs at exit; using the value there is
	// neither a release nor an escape worth tracking.
}

// scanExpr looks for releases and escapes inside one expression.
func (s *balanceScan) scanExpr(e ast.Expr, inDefer bool) {
	if s.escaped || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if s.escaped {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if s.isRelease(x) {
				if inDefer {
					if int(x.Pos()) < s.deferPos {
						s.deferPos = int(x.Pos())
					}
				} else {
					s.releases = append(s.releases, x.Pos())
				}
				return false
			}
			if isBuiltinAppend(x) && s.uses(x) {
				s.escaped = true
				return false
			}
			return true
		case *ast.FuncLit:
			if !inDefer && s.uses(x) {
				s.escaped = true
			}
			return false // separate scope either way
		case *ast.CompositeLit:
			if s.uses(x) {
				s.escaped = true
				return false
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND && s.uses(x.X) {
				s.escaped = true
				return false
			}
		}
		return true
	})
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append" && id.Obj == nil
}

// walkSkippingFuncLits visits every node in body except the contents of
// nested function literals.
func walkSkippingFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
