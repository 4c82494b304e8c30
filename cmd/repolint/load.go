package main

// Module loading without golang.org/x/tools: walk the module tree, parse
// every non-test file go/build selects for this host (build.Default,
// the same file set as a plain `go build`), topologically sort the
// module-local import graph, and type-check each package with go/types.
// Standard-library imports are resolved by the stdlib source importer
// (go/importer "source" mode), so the tool runs with nothing but the Go
// toolchain's own GOROOT.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Pkg is one module-local package: its type-checked library files.
type Pkg struct {
	ImportPath string
	Dir        string
	Name       string
	Files      []*ast.File // buildable non-test files, type-checked
	Types      *types.Package
	Info       *types.Info
}

// Module is the loaded module: packages in dependency (topological) order
// sharing one FileSet.
type Module struct {
	Root string
	Path string
	Fset *token.FileSet
	Pkgs []*Pkg

	// FuncDecls indexes every type-checked function and method
	// declaration by its object, and FuncPkg maps it back to its package
	// — the lookup behind the checks' one-level interprocedural call
	// following (Pass.calleeDecl).
	FuncDecls map[*types.Func]*ast.FuncDecl
	FuncPkg   map[*types.Func]*Pkg
}

// loadModule parses and type-checks every package under root. Returned
// errors are fatal (parse failures, import cycles, type errors): the
// analyzers require well-typed input.
func loadModule(root string) (*Module, []error) {
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, []error{err}
	}
	mod := &Module{Root: root, Path: modPath, Fset: token.NewFileSet()}
	var errs []error

	byPath := make(map[string]*Pkg)
	var order []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		pkg, perrs := parseDir(mod, root, modPath, path)
		errs = append(errs, perrs...)
		if pkg != nil {
			byPath[pkg.ImportPath] = pkg
			order = append(order, pkg.ImportPath)
		}
		return nil
	})
	if err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return nil, errs
	}

	sorted, err := topoSort(order, byPath, modPath)
	if err != nil {
		return nil, []error{err}
	}

	std := importer.ForCompiler(mod.Fset, "source", nil)
	local := make(map[string]*types.Package)
	imp := &moduleImporter{local: local, std: std}
	for _, path := range sorted {
		pkg := byPath[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { errs = append(errs, err) },
		}
		tpkg, _ := conf.Check(pkg.ImportPath, mod.Fset, pkg.Files, info)
		pkg.Types = tpkg
		pkg.Info = info
		local[pkg.ImportPath] = tpkg
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	if len(errs) > 0 {
		return nil, errs
	}
	mod.indexFuncDecls()
	return mod, nil
}

// indexFuncDecls maps every type-checked function and method object to
// its declaration so checks can follow one level of calls into
// module-local helpers.
func (mod *Module) indexFuncDecls() {
	mod.FuncDecls = make(map[*types.Func]*ast.FuncDecl)
	mod.FuncPkg = make(map[*types.Func]*Pkg)
	for _, pkg := range mod.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					mod.FuncDecls[fn] = fd
					mod.FuncPkg[fn] = pkg
				}
			}
		}
	}
}

// parseDir parses one directory's non-test files into a Pkg, selected
// by build.Default.MatchFile (file-name GOOS/GOARCH suffixes and
// //go:build lines). Directories without buildable Go files yield nil.
func parseDir(mod *Module, root, modPath, dir string) (*Pkg, []error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, []error{err}
	}
	var errs []error
	pkg := &Pkg{Dir: dir}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, []error{err}
	}
	if rel == "." {
		pkg.ImportPath = modPath
	} else {
		pkg.ImportPath = modPath + "/" + filepath.ToSlash(rel)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !match {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(mod.Fset, full, nil, parser.ParseComments)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		} else if pkg.Name != f.Name.Name {
			errs = append(errs, fmt.Errorf("%s: package %s conflicts with %s in %s", full, f.Name.Name, pkg.Name, dir))
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(errs) > 0 {
		return nil, errs
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	src, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		rest, ok := strings.CutPrefix(line, "module")
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		path := strings.TrimSpace(rest)
		if unq, err := strconv.Unquote(path); err == nil {
			path = unq
		}
		if path == "" {
			break
		}
		return path, nil
	}
	return "", fmt.Errorf("%s: no module path", gomod)
}

// topoSort orders import paths so every package is checked after its
// module-local dependencies.
func topoSort(paths []string, byPath map[string]*Pkg, modPath string) ([]string, error) {
	sort.Strings(paths)
	const (
		unvisited = 0
		active    = 1
		done      = 2
	)
	state := make(map[string]int, len(paths))
	var out []string
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case done:
			return nil
		case active:
			return fmt.Errorf("import cycle through %s", p)
		}
		state[p] = active
		for _, dep := range localImports(byPath[p], modPath) {
			if _, ok := byPath[dep]; !ok {
				continue
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[p] = done
		out = append(out, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// localImports lists the module-local import paths of pkg's library files.
func localImports(pkg *Pkg, modPath string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if path != modPath && !strings.HasPrefix(path, modPath+"/") {
				continue
			}
			if !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// moduleImporter resolves module-local packages from the in-progress load
// and everything else (the standard library) from GOROOT source.
type moduleImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}
