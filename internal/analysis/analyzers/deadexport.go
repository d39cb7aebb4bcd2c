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
//
// Exported fields of package-level struct types are held to the same
// standard, matched by (package path, struct type, field name), in two
// ways. A field no selector reads is write-only data: an assignment
// target, an inc/dec or a composite-literal element is not a read. A
// bool, numeric or string field (or a named type or array of those) that
// nothing sets — no assignment, inc/dec, composite-literal element or
// &field — is a knob only tests turn: make it a constant. Exempt are
// fields with a struct tag, and every field of a struct type handed out
// of the module, whose fields other code reads and sets without naming
// them: a value or pointer passed to another module's function
// (encoding/json, fmt, reflect), a map key, or an operand of ==.
var DeadExport = &analysis.Analyzer{
	Name: "deadexport",
	Doc:  "flag exported internal/ names and struct fields that no non-test code uses: dead exports, write-only fields, knobs only tests set",
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
// package that refers to it. A field's key carries its struct type in
// recv.
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

// fieldUses records, across the module, which exported fields are read
// and which are set, and which struct types leave the module.
type fieldUses struct {
	module    map[string]bool // import paths of the loaded packages
	read, set map[exportKey]bool
	handedOut map[exportKey]bool // struct types, keyed with an empty recv
}

// structKey keys a named struct type; ok is false for anything else.
func structKey(t types.Type) (exportKey, *types.Struct, bool) {
	n, _ := types.Unalias(t).(*types.Named)
	if n == nil || n.Obj().Pkg() == nil {
		return exportKey{}, nil, false
	}
	st, ok := n.Underlying().(*types.Struct)
	return exportKey{pkg: n.Obj().Pkg().Path(), name: n.Origin().Obj().Name()}, st, ok
}

// fieldKey keys field f of the struct type owner.
func fieldKey(owner types.Type, f *types.Var) (exportKey, bool) {
	k, _, ok := structKey(owner)
	if !ok || !f.Exported() || f.Embedded() {
		return exportKey{}, false
	}
	return exportKey{pkg: k.pkg, recv: k.name, name: f.Name()}, true
}

func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// selector records a field selection: a write (an assignment or inc/dec
// target), an &x.F (a read and a set), or otherwise a read.
func (u *fieldUses) selector(sel *types.Selection, written, addressed bool) {
	if sel == nil || sel.Kind() != types.FieldVal {
		return
	}
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		st, _ := deref(t).Underlying().(*types.Struct)
		if st == nil {
			return
		}
		t = st.Field(i).Type()
	}
	k, ok := fieldKey(deref(t), sel.Obj().(*types.Var))
	if !ok {
		return
	}
	u.set[k] = u.set[k] || written || addressed
	u.read[k] = u.read[k] || !written
}

// literal records the fields a composite literal sets.
func (u *fieldUses) literal(t types.Type, lit *ast.CompositeLit) {
	_, st, ok := structKey(deref(t))
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		f := st.Field(i)
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			for j := 0; j < st.NumFields(); j++ {
				if id, _ := kv.Key.(*ast.Ident); id != nil && st.Field(j).Name() == id.Name {
					f = st.Field(j)
				}
			}
		}
		if k, ok := fieldKey(deref(t), f); ok {
			u.set[k] = true
		}
	}
}

// handOut marks t's struct type, and every struct type its fields reach,
// as leaving the module. A comparison (==, map keys) reaches only what it
// compares: struct and array values, not what pointers, slices and maps
// refer to.
func (u *fieldUses) handOut(t types.Type, compared bool) {
	switch t := types.Unalias(t).(type) {
	case *types.Array:
		u.handOut(t.Elem(), compared)
	case *types.Pointer:
		if !compared {
			u.handOut(t.Elem(), compared)
		}
	case *types.Slice:
		if !compared {
			u.handOut(t.Elem(), compared)
		}
	case *types.Map:
		if !compared {
			u.handOut(t.Key(), compared)
			u.handOut(t.Elem(), compared)
		}
	case *types.Named:
		k, st, ok := structKey(t)
		if !ok || u.handedOut[k] {
			return
		}
		u.handedOut[k] = true
		for i := 0; i < st.NumFields(); i++ {
			u.handOut(st.Field(i).Type(), compared)
		}
	}
}

// call hands out the struct values and pointers passed to a function or
// method declared outside the module.
func (u *fieldUses) call(info *types.Info, call *ast.CallExpr) {
	var obj types.Object
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || u.module[fn.Pkg().Path()] {
		return
	}
	for _, arg := range call.Args {
		t := deref(info.TypeOf(arg))
		if _, _, ok := structKey(t); ok {
			u.handOut(t, false)
		}
	}
}

// assigned returns the field selection an assignment target, inc/dec
// operand or & operand writes, looking through parentheses and indexing.
func assigned(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x
		default:
			return nil
		}
	}
}

func runDeadExport(pass *analysis.Pass) error {
	if !strings.Contains("/"+pass.PkgPath+"/", "/internal/") {
		return nil
	}
	used := make(map[exportKey]bool)
	seen := make(map[*types.TypeName]bool)
	var ifaces []*types.Interface
	fields := &fieldUses{
		module:    make(map[string]bool),
		read:      make(map[exportKey]bool),
		set:       make(map[exportKey]bool),
		handedOut: make(map[exportKey]bool),
	}
	for _, p := range pass.Packages {
		fields.module[p.PkgPath] = true
	}
	for _, p := range pass.Packages {
		info := p.TypesInfo
		written := make(map[*ast.SelectorExpr]bool)
		addressed := make(map[*ast.SelectorExpr]bool)
		for _, f := range p.Syntax {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if se := assigned(lhs); se != nil {
							written[se] = true
						}
					}
				case *ast.IncDecStmt:
					if se := assigned(n.X); se != nil {
						written[se] = true
					}
				case *ast.UnaryExpr:
					if se := assigned(n.X); se != nil && n.Op == token.AND {
						addressed[se] = true
					}
				case *ast.SelectorExpr:
					fields.selector(info.Selections[n], written[n], addressed[n])
				case *ast.CompositeLit:
					fields.literal(info.TypeOf(n), n)
				case *ast.CallExpr:
					fields.call(info, n)
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						fields.handOut(info.TypeOf(n.X), true)
					}
				case *ast.MapType:
					if m, ok := info.TypeOf(n).(*types.Map); ok {
						fields.handOut(m.Key(), true)
					}
				case *ast.Ident:
					obj := info.Uses[n]
					if k, ok := keyOf(obj); ok {
						used[k] = true
					}
					if obj == nil {
						obj = info.Defs[n]
					}
					if tn, ok := obj.(*types.TypeName); ok && !seen[tn] {
						seen[tn] = true
						if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
							ifaces = append(ifaces, it)
						}
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
						if st, ok := s.Type.(*ast.StructType); ok {
							reportFields(pass, s.Name, st, fields)
						}
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

// reportFields flags the exported fields of struct type typ that no
// non-test code reads, and the knobs no non-test code sets.
func reportFields(pass *analysis.Pass, typ *ast.Ident, st *ast.StructType, u *fieldUses) {
	owner := pass.TypesInfo.Defs[typ].Type()
	if k, _, _ := structKey(owner); u.handedOut[k] {
		return
	}
	for _, fl := range st.Fields.List {
		if fl.Tag != nil {
			continue
		}
		for _, name := range fl.Names {
			v, _ := pass.TypesInfo.Defs[name].(*types.Var)
			k, ok := fieldKey(owner, v)
			if !ok {
				continue
			}
			what := "exported field " + typ.Name + "." + name.Name
			switch {
			case !u.read[k]:
				pass.Report(analysis.Diagnostic{
					Pos:     name.Pos(),
					Message: what + " is read by no non-test code; delete it",
				})
			case isKnob(v.Type()) && !u.set[k]:
				pass.Report(analysis.Diagnostic{
					Pos:     name.Pos(),
					Message: what + " is set by no non-test code; make it a constant",
				})
			}
		}
	}
}

// isKnob reports whether t is a bool, number or string, a named type of
// one, or an array of those: a value a test can turn but code rarely
// derives.
func isKnob(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsBoolean|types.IsNumeric|types.IsString) != 0
	case *types.Array:
		return isKnob(u.Elem())
	}
	return false
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
