package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"krak/internal/analysis"
)

// DeadExport enforces the least-code invariant: an exported name of an
// internal/ package exists because shipped code outside its declaration
// uses it. An export that only tests call is code the program carries
// for nobody; delete it, or move a genuine test oracle into the
// package's export_test.go.
//
// The rule needs the whole module's uses, so it reads every loaded
// package (pass.Packages), all of them non-test files. A use in another
// package resolves through export data to a different types.Object than
// the declaration, so uses are matched by (package path, receiver type,
// name). Two kinds of method are reached without a static use and are
// exempt: methods that complete an interface the module names (a call
// through the interface records the interface's method), and the
// method names the standard library calls by convention.
var DeadExport = &analysis.Analyzer{
	Name: "deadexport",
	Doc:  "flag exported internal/ funcs, methods, types, consts and vars that no non-test code uses",
	Run:  runDeadExport,
}

// conventionMethods are the methods fmt, errors, encoding/json, encoding
// and net/http call on any value that has them.
var conventionMethods = map[string]bool{
	"String":        true,
	"Error":         true,
	"Unwrap":        true,
	"Is":            true,
	"As":            true,
	"Format":        true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
	"MarshalText":   true,
	"UnmarshalText": true,
	"ServeHTTP":     true,
}

// exportKey names a package-level object or method the same way in every
// package that refers to it.
type exportKey struct{ pkg, recv, name string }

func keyOf(obj types.Object) (exportKey, bool) {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return exportKey{}, false
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return exportKey{}, false
	}
	k := exportKey{pkg: obj.Pkg().Path(), name: obj.Name()}
	if fn, ok := obj.(*types.Func); ok {
		if n := recvNamed(fn); n != nil {
			k.recv = n.Obj().Name()
		}
	}
	return k, true
}

// recvNamed returns the named type a method is declared on: nil for a
// plain function or a method of an interface literal.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

func runDeadExport(pass *analysis.Pass) error {
	if !strings.Contains("/"+pass.PkgPath+"/", "/internal/") {
		return nil
	}
	used := make(map[exportKey]bool)
	seen := make(map[*types.TypeName]bool)
	var ifaces []*types.Interface
	for _, p := range pass.Packages {
		for _, f := range p.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := p.TypesInfo.Uses[id]
				if k, ok := keyOf(obj); ok {
					used[k] = true
				}
				if obj == nil {
					obj = p.TypesInfo.Defs[id]
				}
				if tn, ok := obj.(*types.TypeName); ok && !seen[tn] {
					seen[tn] = true
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces = append(ifaces, it)
					}
				}
				return true
			})
		}
	}

	report := func(id *ast.Ident, what string) {
		if k, ok := keyOf(pass.TypesInfo.Defs[id]); ok && !used[k] {
			pass.Report(analysis.Diagnostic{
				Pos:     id.Pos(),
				Message: "exported " + what + " is used by no non-test code; delete it or move it to export_test.go",
			})
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					report(d.Name, "func "+d.Name.Name)
					continue
				}
				fn, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if fn == nil || !d.Name.IsExported() || conventionMethods[d.Name.Name] {
					continue
				}
				named := recvNamed(fn)
				if named == nil || !named.Obj().Exported() || completesInterface(named, d.Name.Name, ifaces) {
					continue
				}
				report(d.Name, "method "+named.Obj().Name()+"."+d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(s.Name, "type "+s.Name.Name)
					case *ast.ValueSpec:
						kind := "var "
						if d.Tok == token.CONST {
							kind = "const "
						}
						for _, name := range s.Names {
							report(name, kind+name.Name)
						}
					}
				}
			}
		}
	}
	return nil
}

// completesInterface reports whether method is one of the methods by
// which named (or *named) implements an interface in ifaces. Signatures
// are compared by signatureKey, because an interface seen through export
// data refers to its own copies of named's package types.
func completesInterface(named *types.Named, method string, ifaces []*types.Interface) bool {
	mset := types.NewMethodSet(types.NewPointer(named))
	for _, it := range ifaces {
		declares, implements := false, true
		for i := 0; i < it.NumMethods() && implements; i++ {
			m := it.Method(i)
			declares = declares || m.Name() == method
			sel := mset.Lookup(m.Pkg(), m.Name())
			implements = sel != nil && signatureKey(sel.Type()) == signatureKey(m.Type())
		}
		if declares && implements {
			return true
		}
	}
	return false
}

// signatureKey renders a method signature's parameter and result types,
// package-path qualified and without parameter names.
func signatureKey(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	if sig.Variadic() {
		b.WriteString("...")
	}
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), nil) + ",")
		}
		b.WriteByte(')')
	}
	return b.String()
}
