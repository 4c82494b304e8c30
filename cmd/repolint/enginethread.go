package main

// enginethread enforces PR 3's execution-engine contract inside the
// kernel packages (internal/blas, internal/lapack, internal/cholcp,
// internal/core):
//
//  1. No calls to the default-engine shims — parallel.SetMaxWorkers,
//     parallel.MaxWorkers, and the package-level parallel.For /
//     parallel.Do — in library *or* test files. Parallel width must
//     travel with the call as a *parallel.Engine, never through mutable
//     process-global state (parallel.Split is fine: its width is an
//     explicit argument).
//  2. Exported kernels that fan work out — by calling engine methods or
//     any function whose signature threads a *parallel.Engine — must
//     themselves accept a *parallel.Engine parameter, so callers keep
//     per-call control of width and cancellation.
//
// Test files are checked syntactically (they are not type-checked), by
// resolving the file's import of the parallel package.

import (
	"go/ast"
	"go/types"
)

// engineScopedPkgs are the module-relative packages the check applies to.
var engineScopedPkgs = []string{"internal/blas", "internal/lapack", "internal/cholcp", "internal/core"}

// defaultEngineShims are the parallel package-level entry points that
// read or mutate process-global width state.
var defaultEngineShims = map[string]bool{
	"SetMaxWorkers": true,
	"MaxWorkers":    true,
	"For":           true,
	"Do":            true,
}

func checkEngineThread(p *Pass) {
	if !p.pathIn(engineScopedPkgs...) {
		return
	}
	parallelPath := p.Mod.Path + "/internal/parallel"
	for _, file := range p.Pkg.Files {
		checkShimCallsTyped(p, file, parallelPath)
		checkExportedKernels(p, file, parallelPath)
	}
	for _, file := range p.Pkg.TestFiles {
		checkShimCallsSyntactic(p, file, parallelPath)
	}
}

// checkShimCallsTyped flags typed calls to the default-engine shims.
func checkShimCallsTyped(p *Pass, file *ast.File, parallelPath string) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.Pkg.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != parallelPath {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && defaultEngineShims[fn.Name()] {
			p.reportf(file, call.Pos(), "call to default-engine shim parallel.%s; thread a *parallel.Engine through the kernel instead", fn.Name())
		}
		return true
	})
}

// checkShimCallsSyntactic is the test-file variant: without type
// information it matches selector calls through the file's import of the
// parallel package.
func checkShimCallsSyntactic(p *Pass, file *ast.File, parallelPath string) {
	local := importName(file, parallelPath)
	if local == "" || local == "." {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != local || !defaultEngineShims[sel.Sel.Name] {
			return true
		}
		p.reportf(file, call.Pos(), "call to default-engine shim parallel.%s in a kernel-package test; use parallel.NewEngine and pass it explicitly", sel.Sel.Name)
		return true
	})
}

// checkExportedKernels flags exported functions that use engine-threaded
// parallelism without accepting a *parallel.Engine themselves.
func checkExportedKernels(p *Pass, file *ast.File, parallelPath string) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || !fd.Name.IsExported() || fd.Body == nil {
			continue
		}
		obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		sig := obj.Type().(*types.Signature)
		if signatureHasEngine(sig, parallelPath) {
			continue
		}
		if callee := firstEngineUse(p.Pkg.Info, fd.Body, parallelPath); callee != "" {
			p.reportf(file, fd.Name.Pos(), "exported kernel %s uses the parallel engine (via %s) but does not accept a *parallel.Engine parameter", fd.Name.Name, callee)
		}
	}
}

// signatureHasEngine reports whether any parameter of sig is a
// *parallel.Engine.
func signatureHasEngine(sig *types.Signature, parallelPath string) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if path, name := namedPath(params.At(i).Type()); path == parallelPath && name == "Engine" {
			return true
		}
	}
	return false
}

// firstEngineUse returns a description of the first engine-coupled call
// in body — an Engine method, a parallel shim, or any function whose own
// signature threads an engine — or "" when body is engine-free.
func firstEngineUse(info *types.Info, body *ast.BlockStmt, parallelPath string) string {
	var found string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
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
				found = "Engine." + fn.Name()
			}
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == parallelPath && defaultEngineShims[fn.Name()] {
			found = "parallel." + fn.Name()
			return true
		}
		if signatureHasEngine(sig, parallelPath) {
			found = fn.Name()
		}
		return true
	})
	return found
}
