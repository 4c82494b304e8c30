package main

// The check framework: a registry of named checks, a per-package Pass with
// reporting and inline-suppression support, and the small go/types helpers
// every analyzer shares.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Finding is one diagnostic.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

// Pass carries one package through one check.
type Pass struct {
	Mod *Module
	Pkg *Pkg

	check  *check
	out    *[]Finding
	allows map[*ast.File]map[int]map[string]bool
}

// check is a registered analyzer.
type check struct {
	name string
	doc  string
	run  func(p *Pass)
}

// allChecks is the registry, in reporting-priority order.
var allChecks = []*check{
	{"workspacebalance", "mat.GetWorkspace/GetFloats must reach PutWorkspace/PutFloats on every return path", checkWorkspaceBalance},
	{"spanbalance", "trace.Region spans must reach .End() on every return path", checkSpanBalance},
	{"enginethread", "kernel packages must thread *parallel.Engine, not the default-engine shims", checkEngineThread},
	{"floatcmp", "no ==/!= between computed floating-point operands", checkFloatCmp},
	{"norand", "no global math/rand state outside testmat/ and _test.go files", checkNoRand},
	{"hotpath", "//repolint:hotpath functions must not call fmt/log/errors/strconv or panic dynamically", checkHotPath},
	{"detreduce", "parallel workers in kernel packages must reduce through per-slot buffers, never accumulate into shared float state", checkDetReduce},
	{"wirebounds", "wire-decoded lengths in service/ must pass a bounds comparison before make, slicing, or loop bounds", checkWireBounds},
	{"ctxcancel", "sweep and accept loops must observe cancellation once per iteration; go statements must carry a context or engine", checkCtxCancel},
}

// runChecks applies the enabled checks to every package and returns the
// surviving (non-suppressed) findings in position order.
func runChecks(mod *Module, checks []*check) []Finding {
	var findings []Finding
	allows := make(map[*ast.File]map[int]map[string]bool)
	for _, pkg := range mod.Pkgs {
		for _, c := range checks {
			p := &Pass{Mod: mod, Pkg: pkg, check: c, out: &findings, allows: allows}
			c.run(p)
		}
	}
	sortFindings(findings)
	return findings
}

// reportf records a finding at pos unless an //repolint:allow comment on
// the same line or the line above suppresses it. The file argument is the
// syntax file containing pos (needed for comment lookup).
func (p *Pass) reportf(file *ast.File, pos token.Pos, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	if p.allowedAt(file, position.Line) {
		return
	}
	*p.out = append(*p.out, Finding{Pos: position, Check: p.check.name, Msg: fmt.Sprintf(format, args...)})
}

// allowedAt reports whether the current check is suppressed at line.
func (p *Pass) allowedAt(file *ast.File, line int) bool {
	m, ok := p.allows[file]
	if !ok {
		m = collectAllows(p.Mod.Fset, file)
		p.allows[file] = m
	}
	for _, l := range [2]int{line, line - 1} {
		if checks := m[l]; checks != nil && (checks[p.check.name] || checks["all"]) {
			return true
		}
	}
	return false
}

// collectAllows indexes //repolint:allow comments by line. The comment
// grammar is `//repolint:allow check1,check2 — optional reason`.
func collectAllows(fset *token.FileSet, file *ast.File) map[int]map[string]bool {
	out := make(map[int]map[string]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//repolint:allow")
			if !ok {
				continue
			}
			rest = strings.TrimSpace(rest)
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				rest = rest[:i]
			}
			line := fset.Position(c.Pos()).Line
			set := out[line]
			if set == nil {
				set = make(map[string]bool)
				out[line] = set
			}
			for _, name := range strings.Split(rest, ",") {
				if name = strings.TrimSpace(name); name != "" {
					set[name] = true
				}
			}
		}
	}
	return out
}

// calleeFunc resolves the statically-known function or method a call
// invokes, or nil (builtins, function-typed variables, type conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function path.name.
func isPkgFunc(fn *types.Func, path, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == path && fn.Name() == name
}

// namedPath returns the package path and type name of t after stripping
// one pointer indirection, or "" when t is not a (pointer to) named type.
func namedPath(t types.Type) (pkgPath, name string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// pathIn reports whether the package's import path equals one of the
// module-relative suffixes (e.g. "internal/blas").
func (p *Pass) pathIn(rels ...string) bool {
	for _, rel := range rels {
		if p.Pkg.ImportPath == p.Mod.Path+"/"+rel {
			return true
		}
	}
	return false
}

// pathUnder reports whether the package sits at or below one of the
// module-relative prefixes — "service" matches both repro/service and
// repro/service/bad, so fixture sub-packages share the real package's
// scoping.
func (p *Pass) pathUnder(rels ...string) bool {
	for _, rel := range rels {
		full := p.Mod.Path + "/" + rel
		if p.Pkg.ImportPath == full || strings.HasPrefix(p.Pkg.ImportPath, full+"/") {
			return true
		}
	}
	return false
}

// calleeDecl resolves a call one level into the module: the declaration
// of the invoked function or method when it is module-local, plus its
// defining package. Checks use this to see through small helpers without
// a full interprocedural analysis.
func (p *Pass) calleeDecl(call *ast.CallExpr) (*ast.FuncDecl, *Pkg) {
	fn := calleeFunc(p.Pkg.Info, call)
	if fn == nil {
		return nil, nil
	}
	fd, ok := p.Mod.FuncDecls[fn]
	if !ok {
		return nil, nil
	}
	return fd, p.Mod.FuncPkg[fn]
}

// funcBodies collects every function body in file: declarations and
// literals, each analyzed as its own scope.
func funcBodies(file *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch f := n.(type) {
		case *ast.FuncDecl:
			if f.Body != nil {
				out = append(out, f.Body)
			}
		case *ast.FuncLit:
			out = append(out, f.Body)
		}
		return true
	})
	return out
}

// usesObject reports whether any identifier under n resolves to obj.
func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// importName returns the local name the file binds path to, or "" when
// the file does not import path. A dot import returns ".".
func importName(file *ast.File, path string) string {
	for _, spec := range file.Imports {
		p := strings.Trim(spec.Path.Value, `"`)
		if p != path {
			continue
		}
		if spec.Name != nil {
			return spec.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}
