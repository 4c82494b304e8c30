package main

// hotpath enforces the //repolint:hotpath annotation: functions on the
// Gram/TRSM/GEMM inner loops are the reason the steady-state iteration is
// allocation-free (TestGramLargeStillAllocFree), so they must not call
// the formatting and error-construction helpers that allocate — fmt.*,
// log.*, errors.*, strconv.* — nor panic with a dynamically built
// message. A constant-string panic is fine: it costs nothing until it
// fires.
//
// The scan covers the annotated function's whole body including nested
// function literals — worker closures handed to the parallel engine run
// on the same hot path as the code that spawns them. A function literal
// can also be annotated directly, by putting //repolint:hotpath on the
// line above the statement that defines it:
//
//	// gemmTNRange accumulates dst += alpha·A(lo:hi,:)ᵀ·B(lo:hi,:).
//	//repolint:hotpath
//	func gemmTNRange(...)
//
//	//repolint:hotpath
//	body := func(lo, hi int) { … }

import (
	"go/ast"
	"go/token"
	"strings"
)

// hotpathDeniedPkgs are packages whose every call allocates (formatting
// machinery, error construction) and is therefore banned on hot paths.
var hotpathDeniedPkgs = map[string]bool{
	"fmt":     true,
	"log":     true,
	"errors":  true,
	"strconv": true,
}

func checkHotPath(p *Pass) {
	for _, file := range p.Pkg.Files {
		annotated := hotpathCommentLines(p.Mod.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isHotpathAnnotated(fd) {
				scanHotBody(p, file, fd.Name.Name, fd.Body)
				continue
			}
			// Function literals annotated at their defining statement
			// inside an otherwise cold function.
			for _, lit := range annotatedFuncLits(p.Mod.Fset, fd.Body, annotated) {
				scanHotBody(p, file, "func literal", lit.Body)
			}
		}
	}
}

// scanHotBody flags denied calls and dynamic panics anywhere in body,
// nested function literals included.
func scanHotBody(p *Pass, file *ast.File, name string, body *ast.BlockStmt) {
	info := p.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && id.Obj == nil && len(call.Args) == 1 {
			if !isConstExpr(info, call.Args[0]) {
				p.reportf(file, call.Pos(), "hotpath function %s panics with a dynamically built message; use a constant string (formatting allocates on the hot path)", name)
			}
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if hotpathDeniedPkgs[fn.Pkg().Path()] {
			p.reportf(file, call.Pos(), "hotpath function %s calls %s.%s, which allocates; hot-path kernels must stay allocation- and formatting-free", name, fn.Pkg().Name(), fn.Name())
		}
		return true
	})
}

// hotpathCommentLines indexes the lines carrying a //repolint:hotpath
// comment in file.
func hotpathCommentLines(fset *token.FileSet, file *ast.File) map[int]bool {
	out := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), "//repolint:hotpath") {
				out[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

// annotatedFuncLits finds function literals whose defining statement sits
// directly below a //repolint:hotpath comment line.
func annotatedFuncLits(fset *token.FileSet, body *ast.BlockStmt, annotated map[int]bool) []*ast.FuncLit {
	if len(annotated) == 0 {
		return nil
	}
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		var values []ast.Expr
		switch st := n.(type) {
		case *ast.AssignStmt:
			values = st.Rhs
		case *ast.ValueSpec:
			values = st.Values
		default:
			return true
		}
		if !annotated[fset.Position(n.Pos()).Line-1] {
			return true
		}
		for _, v := range values {
			if lit, ok := ast.Unparen(v).(*ast.FuncLit); ok {
				out = append(out, lit)
			}
		}
		return true
	})
	return out
}

// isHotpathAnnotated reports whether fd's doc comment carries the
// //repolint:hotpath marker.
func isHotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), "//repolint:hotpath") {
			return true
		}
	}
	return false
}
