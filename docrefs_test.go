package krak

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docRef matches a `path.go:Symbol` code reference: a Go file, then a
// declared name or a Type.Member pair.
var docRef = regexp.MustCompile("`([A-Za-z0-9_./-]+\\.go):([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)?)`")

// TestDocReferencesResolve keeps the paper→code and architecture maps
// executable: every `path.go:Symbol` in docs/MODEL.md,
// docs/ARCHITECTURE.md and README.md must name a declaration that
// exists. A bare file name (`phases.go:Phase`) means the file the
// document last named by full path with that base name, or else the
// only file in the module with that base name. Symbol is a func, type,
// var or const declared in the file, a method declared in it, or
// Type.Member, a method or field of a type the file declares.
func TestDocReferencesResolve(t *testing.T) {
	byBase := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			byBase[d.Name()] = append(byBase[d.Name()], filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{} // path -> the names it resolves
	refs := 0
	for _, doc := range []string{"docs/MODEL.md", "docs/ARCHITECTURE.md", "README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		last := map[string]string{} // base name -> last full path named
		for _, m := range docRef.FindAllStringSubmatch(string(src), -1) {
			file, sym := m[1], m[2]
			if file == "file.go" {
				continue // MODEL.md's statement of the reference format
			}
			refs++
			path := file
			if strings.Contains(file, "/") {
				last[filepath.Base(file)] = file
			} else if p, ok := last[file]; ok {
				path = p
			} else if paths := byBase[file]; len(paths) == 1 {
				path = paths[0]
			} else {
				t.Errorf("%s: `%s:%s`: no full path named before it, and %d files are called %s", doc, file, sym, len(paths), file)
				continue
			}
			names, ok := decls[path]
			if !ok {
				if names, err = declaredNames(path); err != nil {
					t.Errorf("%s: `%s:%s`: %v", doc, file, sym, err)
					continue
				}
				decls[path] = names
			}
			if !names[sym] {
				t.Errorf("%s: `%s:%s` does not resolve: %s declares no %s", doc, file, sym, path, sym)
			}
		}
	}
	if refs == 0 {
		t.Fatal("no code references found in the docs")
	}
}

// declaredNames parses path and returns what a reference into it may
// name: its top-level funcs, types, vars and consts, the bare names of
// its methods, and Type.Member for each method or struct field of a type
// it declares, wherever in the type's package that member is declared.
func declaredNames(path string) (map[string]bool, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	types := map[string]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					types[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	// Members may be declared in any file of the package.
	pkgFiles, err := filepath.Glob(filepath.Join(filepath.Dir(path), "*.go"))
	if err != nil {
		return nil, err
	}
	for _, pf := range pkgFiles {
		g, err := parser.ParseFile(fset, pf, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if g.Name.Name != f.Name.Name {
			continue
		}
		for _, decl := range g.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if recv := receiverType(d.Recv.List[0].Type); types[recv] {
						names[recv+"."+d.Name.Name] = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					s, ok := spec.(*ast.TypeSpec)
					if !ok || !types[s.Name.Name] {
						continue
					}
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, n := range field.Names {
							names[s.Name.Name+"."+n.Name] = true
						}
					}
				}
			}
		}
	}
	return names, nil
}

// receiverType returns the type name of a method receiver: T, *T, T[P]
// or *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
