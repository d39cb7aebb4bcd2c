package analyzers

import (
	"go/ast"
	"go/types"

	"krak/internal/analysis"
)

// MapRange enforces determinism invariant (1): model and rendering code
// must not let Go's randomized map iteration order reach any output. All
// 17 experiment goldens pin byte-identical output, so a map range that
// appends, formats, or accumulates floating-point values in iteration
// order is a latent golden break that only fires when the hash seed
// changes.
//
// A range over a map is flagged unless its body is one of the two
// order-insensitive idioms:
//
//   - key collection: a single `keys = append(keys, k)` statement (the
//     standard extract-then-sort prelude), or
//   - map clearing: a single `delete(m, k)` statement.
//
// For the simple `for k := range m` form with an ordered key type the
// analyzer attaches a rewrite to `for _, k := range
// slices.Sorted(maps.Keys(m))`, which `krakcheck -fix` (and `make
// lint-fix`) applies. Order-insensitive reductions (integer counters,
// max/min) should instead carry `//krakcheck:ignore maprange <reason>`.
var MapRange = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "flag map iteration whose order can reach output; require sorted keys or a reasoned ignore",
	Run:  runMapRange,
}

func runMapRange(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderInsensitiveBody(pass, rs) {
				return true
			}
			d := analysis.Diagnostic{
				Pos: rs.Pos(),
				Message: "range over map " + types.ExprString(rs.X) +
					" has nondeterministic order; extract and sort keys first",
			}
			if fix, ok := sortedKeysFix(pass, rs); ok {
				d.Fixes = []analysis.SuggestedFix{fix}
			}
			pass.Report(d)
			return true
		})
	}
	return nil
}

// orderInsensitiveBody recognizes the two loop bodies whose effect cannot
// depend on iteration order.
func orderInsensitiveBody(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	if rs.Body == nil || len(rs.Body.List) != 1 {
		return false
	}
	key, _ := rs.Key.(*ast.Ident)
	switch stmt := rs.Body.List[0].(type) {
	case *ast.AssignStmt:
		// keys = append(keys, k)
		if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 || key == nil {
			return false
		}
		call, ok := stmt.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(pass.TypesInfo, call, "append") || len(call.Args) != 2 || call.Ellipsis.IsValid() {
			return false
		}
		dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		lhs, ok2 := ast.Unparen(stmt.Lhs[0]).(*ast.Ident)
		arg, ok3 := ast.Unparen(call.Args[1]).(*ast.Ident)
		return ok && ok2 && ok3 &&
			dst.Name == lhs.Name &&
			pass.TypesInfo.Uses[arg] == pass.TypesInfo.Defs[key]
	case *ast.ExprStmt:
		// delete(m, k)
		call, ok := stmt.X.(*ast.CallExpr)
		return ok && isBuiltin(pass.TypesInfo, call, "delete")
	}
	return false
}

// sortedKeysFix rewrites `for k := range m` to
// `for _, k := range slices.Sorted(maps.Keys(m))` when the key type is
// ordered, the value is unused, and the key is a fresh definition —
// exactly the cases where the rewrite is behavior-preserving (beyond
// fixing the order).
func sortedKeysFix(pass *analysis.Pass, rs *ast.RangeStmt) (analysis.SuggestedFix, bool) {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" || rs.Value != nil || !rs.TokPos.IsValid() {
		return analysis.SuggestedFix{}, false
	}
	mt := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map)
	basic, ok := mt.Key().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsOrdered == 0 {
		return analysis.SuggestedFix{}, false
	}
	newText := "_, " + key.Name + " := range slices.Sorted(maps.Keys(" + types.ExprString(rs.X) + "))"
	return analysis.SuggestedFix{
		Edits:      []analysis.TextEdit{{Pos: rs.Key.Pos(), End: rs.X.End(), NewText: newText}},
		AddImports: []string{"maps", "slices"},
	}, true
}
