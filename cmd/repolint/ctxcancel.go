package main

// ctxcancel enforces the cooperative-cancellation contract at its three
// choke points:
//
//  1. Sweep loops in internal/core and internal/ooc: a function that threads a
//     *parallel.Engine and returns an error must observe cancellation —
//     e.Err(), ctx.Err(), or ctx.Done() — at least once per iteration of
//     any loop that launches engine-threaded kernels. Cancellation is
//     checked between kernels, never inside them (DESIGN.md §6), so the
//     loop boundary is exactly where a missing check turns Shutdown into
//     an unbounded wait. Only the outermost kernel-bearing loop is
//     checked: an observing outer sweep bounds its inner panels.
//  2. Unbounded service loops: a `for {` with no condition in service/
//     (accept loops, read loops, flush loops) must observe a context per
//     iteration, or a hung peer pins the goroutine past Shutdown.
//  3. Every go statement in non-test code must carry cancellation: the
//     spawned call's receiver, arguments, or literal body must reference
//     a context.Context or an Engine, directly or one call level down.
//     internal/parallel is exempt — it is the substrate being carried.
//
// Justified exceptions (connection-lifetime readers, wait-group-bounded
// helpers) carry //repolint:allow ctxcancel with a reason.

import (
	"go/ast"
	"go/types"
	"strings"
)

func checkCtxCancel(p *Pass) {
	if p.pathUnder("internal/core", "internal/ooc") {
		checkSweepLoops(p)
	}
	if p.pathUnder("service") {
		checkServiceLoops(p)
	}
	if !p.pathUnder("internal/parallel") {
		checkGoStatements(p)
	}
}

// checkSweepLoops flags per-iteration kernel loops with no cancellation
// observance in engine-threaded, error-returning functions.
func checkSweepLoops(p *Pass) {
	parallelPath := p.Mod.Path + "/internal/parallel"
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if !signatureHasEngine(sig, parallelPath) || !returnsError(sig) {
				continue
			}
			for _, loop := range outermostKernelLoops(p, fd.Body, parallelPath) {
				if !observesCancellation(p.Pkg.Info, loopBody(loop), parallelPath, p.Mod.Path) {
					p.reportf(file, loop.Pos(), "loop launches engine-threaded kernels but never observes cancellation; check e.Err() (or ctx.Done()) once per iteration so Shutdown stays bounded")
				}
			}
		}
	}
}

// checkServiceLoops flags condition-less for-loops in service/ that never
// observe a context.
func checkServiceLoops(p *Pass) {
	parallelPath := p.Mod.Path + "/internal/parallel"
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil || loop.Init != nil || loop.Post != nil {
				return true
			}
			if !observesCancellation(p.Pkg.Info, loop.Body, parallelPath, p.Mod.Path) {
				p.reportf(file, loop.Pos(), "unbounded service loop never observes cancellation; check the server context once per iteration or justify with //repolint:allow ctxcancel")
			}
			return true
		})
	}
}

// checkGoStatements flags go statements whose spawned work carries
// neither a context nor an engine (directly or one call level down).
func checkGoStatements(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if referencesCancellation(p.Pkg.Info, st.Call, p.Mod.Path) {
				return true
			}
			// One level down: a named module-local callee whose body
			// reaches a context/engine (b.run reading b.baseCtx).
			if fd, pkg := p.calleeDecl(st.Call); fd != nil && fd.Body != nil {
				if referencesCancellation(pkg.Info, fd.Body, p.Mod.Path) {
					return true
				}
			}
			p.reportf(file, st.Pos(), "go statement carries no context or engine; spawned goroutines must be cancellable (or justify with //repolint:allow ctxcancel)")
			return true
		})
	}
}

// outermostKernelLoops collects the loops in body (outside function
// literals) that contain engine-threaded kernel calls, skipping loops
// nested inside another kernel-bearing loop: the per-iteration contract
// binds at the outermost sweep.
func outermostKernelLoops(p *Pass, body *ast.BlockStmt, parallelPath string) []ast.Stmt {
	var out []ast.Stmt
	var visit func(n ast.Node, inKernelLoop bool)
	visit = func(n ast.Node, inKernelLoop bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return true
			}
			switch loop := c.(type) {
			case *ast.FuncLit:
				return false // worker bodies are the kernels themselves
			case *ast.ForStmt, *ast.RangeStmt:
				isKernel := containsKernelCall(p.Pkg.Info, loopBody(loop.(ast.Stmt)), parallelPath)
				if isKernel && !inKernelLoop {
					out = append(out, loop.(ast.Stmt))
				}
				visit(loopBody(loop.(ast.Stmt)), inKernelLoop || isKernel)
				return false
			}
			return true
		})
	}
	visit(body, false)
	return out
}

// loopBody returns the block of a for or range statement.
func loopBody(loop ast.Stmt) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// containsKernelCall reports whether the block (outside nested literals)
// calls an engine-threaded function or Engine.For, the one fan-out.
func containsKernelCall(info *types.Info, body *ast.BlockStmt, parallelPath string) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		if recv := sig.Recv(); recv != nil {
			if path, name := namedPath(recv.Type()); path == parallelPath && name == "Engine" {
				found = fn.Name() == "For"
			}
			return true
		}
		if signatureHasEngine(sig, parallelPath) {
			found = true
		}
		return true
	})
	return found
}

// observesCancellation reports whether the block calls Err/Context on a
// *parallel.Engine or Err/Done on a context.Context (a select over
// ctx.Done() included).
func observesCancellation(info *types.Info, body *ast.BlockStmt, parallelPath, modPath string) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		path, name := namedPath(sig.Recv().Type())
		switch {
		case path == "context" && name == "Context" && (fn.Name() == "Err" || fn.Name() == "Done"):
			found = true
		case name == "Engine" && strings.HasPrefix(path, modPath) && (fn.Name() == "Err" || fn.Name() == "Context"):
			found = true
		}
		return !found
	})
	return found
}

// referencesCancellation reports whether any expression under n has a
// context.Context or module-local Engine type — the spawned work can be
// cancelled through it.
func referencesCancellation(info *types.Info, n ast.Node, modPath string) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		e, ok := c.(ast.Expr)
		if !ok {
			return true
		}
		t := info.TypeOf(e)
		if t == nil {
			return true
		}
		path, name := namedPath(t)
		if path == "context" && name == "Context" {
			found = true
		}
		if name == "Engine" && strings.HasPrefix(path, modPath) {
			found = true
		}
		return !found
	})
	return found
}

// returnsError reports whether the signature's last result is error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	t, ok := res.At(res.Len() - 1).Type().(*types.Named)
	return ok && t.Obj().Pkg() == nil && t.Obj().Name() == "error"
}
