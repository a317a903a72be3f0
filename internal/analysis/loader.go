package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Loader parses and type-checks module packages using only the standard
// library: go/parser for syntax, go/types for semantics, and the stdlib
// source importer for out-of-module (standard library) dependencies.
// Module-internal imports resolve recursively through the loader itself,
// so the go tool is never invoked.
type Loader struct {
	ModuleRoot string
	ModulePath string
	Fset       *token.FileSet
	Sizes      types.Sizes

	std  types.Importer
	pkgs map[string]*Package
	busy map[string]bool
}

// NewLoader creates a loader rooted at the module directory containing
// go.mod.
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks the standard library from GOROOT
	// source; with cgo disabled it follows the pure-Go fallbacks (net,
	// os/user), which is all the type information an analyzer needs.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		Fset:       fset,
		Sizes:      types.SizesFor("gc", build.Default.GOARCH),
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		busy:       make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Import implements types.Importer: module-internal paths load through
// the loader, everything else through the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadImportPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) loadImportPath(importPath string) (*Package, error) {
	return l.load(l.dirFor(importPath), importPath)
}

// LoadDir parses and type-checks the package in dir (absolute or
// relative to the module root). Results are cached by import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.ModuleRoot, dir)
	}
	importPath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.load(dir, importPath)
}

func (l *Loader) load(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.busy[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.busy[importPath] = true
	defer delete(l.busy, importPath)

	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l, Sizes: l.Sizes}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{ImportPath: importPath, Dir: dir, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// sourceFiles lists the non-test Go files of dir that the go tool would
// build for the host platform (file-name GOOS/GOARCH suffixes and
// //go:build lines, as build.Default.MatchFile reads them), in sorted
// order. Test files are out of scope for pieceslint (the invariants
// guard production paths; tests probe them deliberately).
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadPatterns expands the given patterns into loaded packages. A
// pattern is either a directory (relative to the module root) or a
// directory followed by "/..." for a recursive walk; "./..." covers the
// whole module. Directories named testdata, hidden directories and
// underscore-prefixed directories are skipped during walks, mirroring
// the go tool.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			if rest == "." || rest == "" {
				rest = ""
			}
			base := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(rest, "./")))
			walked, err := walkPackageDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
			continue
		}
		add(filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./"))))
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// walkPackageDirs returns every directory under base that contains at
// least one buildable (non-test) Go file.
func walkPackageDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := sourceFiles(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// CachedPackages returns every module package the loader has loaded so
// far — analyzed targets and module-internal dependencies alike — in
// stable import-path order. This is the package universe the
// interprocedural engine builds its call graph over.
func (l *Loader) CachedPackages() []*Package {
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, len(paths))
	for i, p := range paths {
		out[i] = l.pkgs[p]
	}
	return out
}

// relPath renders path relative to root with forward slashes (the form
// diagnostics and the allowlist use).
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}
