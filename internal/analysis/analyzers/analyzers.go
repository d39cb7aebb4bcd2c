// Package analyzers holds krakcheck's rule set: one analyzer per
// invariant the codebase otherwise enforces only by convention. Each
// analyzer documents the invariant it protects and the regression suite
// that invariant backs up (goldens, alloc guards, error tables), and each
// is proven by analysistest fixtures under ../testdata/src.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"krak/internal/analysis"
)

// All returns the full krakcheck rule set in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapRange,
		DetRand,
		ArenaEscape,
		WrapErr,
		BoundedParse,
		CtxFlow,
		DeadExport,
	}
}

// ByName resolves a comma-separated rule list against All, returning nil
// and the offending name if one is unknown.
func ByName(list string) ([]*analysis.Analyzer, string) {
	var out []*analysis.Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, name
		}
	}
	return out, ""
}

// pathBase returns the last element of an import path: the unit the
// path-scoped analyzers match on, so fixture packages (import path
// "hydro") and real packages ("krak/internal/hydro") scope identically.
func pathBase(pkgPath string) string {
	if i := strings.LastIndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[i+1:]
	}
	return pkgPath
}

// pkgNameOf returns the imported package a selector's base identifier
// refers to, or "" when the expression is not a package-qualified name.
func pkgNameOf(info *types.Info, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// calleeFunc resolves a call expression to the function or method object
// it invokes, or nil for builtins, conversions, and function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isBuiltin reports whether a call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
