//go:build knobcheck || reachcheck

package pipette

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// modLoader type-checks the module's packages from source for the knob and
// reachability checks, sharing one types.Package per import path so objects
// compare by identity. The standard library comes from the stdlib "source"
// importer. Files are chosen by the host's build constraints.
type modLoader struct {
	root    string
	fset    *token.FileSet
	ctx     build.Context
	std     types.ImporterFrom
	pkgs    map[string]*types.Package
	checked []*modPkg
	// testsOf names the one package whose in-package test files are
	// type-checked with it, or is empty.
	testsOf string
}

// modPkg is one type-checked package of the module.
type modPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
}

func newModLoader(root string) *modLoader {
	// Pure-Go builds of net and os/user, so no C toolchain is needed.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &modLoader{
		root: root,
		fset: fset,
		ctx:  build.Default,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{},
	}
}

// packageDirs lists every directory of the module and the benchmark module
// that holds non-test Go files.
func (l *modLoader) packageDirs(t *testing.T) []string {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != l.root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := l.ctx.ImportDir(path, 0); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// loadAll type-checks every package packageDirs lists.
func (l *modLoader) loadAll(t *testing.T) {
	for _, d := range l.packageDirs(t) {
		if _, err := l.load(d); err != nil {
			t.Fatal(err)
		}
	}
}

func (l *modLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *modLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "pipette" || strings.HasPrefix(path, "pipette/") {
		return l.load(filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, "pipette"), "/")))
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *modLoader) load(dir string) (*types.Package, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	path := filepath.ToSlash(filepath.Join("pipette", rel))
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if path == l.testsOf {
		names = append(names, bp.TestGoFiles...)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	l.checked = append(l.checked, &modPkg{path: path, files: files, info: info})
	return p, nil
}
