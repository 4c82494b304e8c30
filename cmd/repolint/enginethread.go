package main

// enginethread enforces the execution-engine contract inside the kernel
// packages (internal/blas, internal/lapack, internal/cholcp,
// internal/core): exported kernels that fan work out — by calling
// engine methods or any function whose signature threads a
// *parallel.Engine — must themselves accept a *parallel.Engine
// parameter, so callers keep per-call control of width and
// cancellation. internal/parallel has no package-level For, but a
// kernel can still fan out on a package-global engine (parallel.Default
// or one of its own) and hide the width from its caller; this check
// reports that.

import (
	"go/ast"
	"go/types"
)

// engineScopedPkgs are the module-relative packages the check applies to.
var engineScopedPkgs = []string{"internal/blas", "internal/lapack", "internal/cholcp", "internal/core"}

func checkEngineThread(p *Pass) {
	if !p.pathIn(engineScopedPkgs...) {
		return
	}
	parallelPath := p.Mod.Path + "/internal/parallel"
	for _, file := range p.Pkg.Files {
		checkExportedKernels(p, file, parallelPath)
	}
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
// in body — an Engine method or any function whose own signature
// threads an engine — or "" when body is engine-free.
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
		if signatureHasEngine(sig, parallelPath) {
			found = fn.Name()
		}
		return true
	})
	return found
}
