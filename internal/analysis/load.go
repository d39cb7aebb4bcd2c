package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
)

// Package is one loaded, parsed, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	GoFiles []string

	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Load resolves patterns (e.g. "./...") with `go list` run in dir, then
// parses and type-checks every matched package from source. Imports —
// both standard-library and intra-module — are satisfied from compiler
// export data produced by `go list -export`, so loading needs no network
// and no pre-installed archives, only the go toolchain and its build
// cache.
//
// Only non-test files are loaded: the invariants krakcheck enforces are
// about what ships (model determinism, arena ownership, public error
// contracts); tests routinely use wall clocks and raw rand on purpose.
func Load(dir string, patterns ...string) ([]*Package, error) {
	metas, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(metas))
	var targets []*listPackage
	for _, m := range metas {
		if m.Export != "" {
			exports[m.ImportPath] = m.Export
		}
		if !m.DepOnly && m.Name != "" {
			targets = append(targets, m)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var pkgs []*Package
	for _, m := range targets {
		p, err := typecheck(fset, imp, m.ImportPath, m.Dir, m.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package rooted at dir (its
// non-test .go files), with imports resolved from export data. pkgPath
// names the package for path-scoped analyzers; analysistest uses this to
// load fixture packages that live outside the module.
func LoadDir(dir, pkgPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".go" || isTestFile(name) {
			continue
		}
		files = append(files, name)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	imp := newExportImporter(fset, nil)
	return typecheck(fset, imp, pkgPath, dir, files)
}

func isTestFile(name string) bool {
	return len(name) > len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

func typecheck(fset *token.FileSet, imp types.Importer, pkgPath, dir string, fileNames []string) (*Package, error) {
	pkg := &Package{
		PkgPath: pkgPath,
		Fset:    fset,
	}
	for _, name := range fileNames {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", full, err)
		}
		pkg.GoFiles = append(pkg.GoFiles, full)
		pkg.Syntax = append(pkg.Syntax, f)
	}

	pkg.TypesInfo = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, pkg.Syntax, pkg.TypesInfo)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", pkgPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
}

func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var metas []*listPackage
	for {
		var m listPackage
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %w", err)
		}
		metas = append(metas, &m)
	}
	return metas, nil
}

// exportImporter satisfies imports from gc export data. Paths present in
// the preloaded map are opened directly; anything else (fixture imports
// of packages outside the original `go list -deps` closure) is resolved
// lazily with one `go list -export` call and memoized process-wide, so
// repeated fixture loads in tests stay cheap.
type exportImporter struct {
	delegate types.ImporterFrom
}

var lazyExports sync.Map // import path -> export file path

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			if cached, hit := lazyExports.Load(path); hit {
				file = cached.(string)
			} else {
				var err error
				file, err = resolveExport(path)
				if err != nil {
					return nil, err
				}
				lazyExports.Store(path, file)
			}
		}
		return os.Open(file)
	}
	gc := importer.ForCompiler(fset, "gc", lookup)
	return &exportImporter{delegate: gc.(types.ImporterFrom)}
}

func resolveExport(path string) (string, error) {
	cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("analysis: resolve export data for %q: %v\n%s", path, err, stderr.String())
	}
	file := string(bytes.TrimSpace(out))
	if file == "" {
		return "", fmt.Errorf("analysis: no export data for %q", path)
	}
	return file, nil
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	return e.ImportFrom(path, "", 0)
}

func (e *exportImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.delegate.ImportFrom(path, srcDir, mode)
}
