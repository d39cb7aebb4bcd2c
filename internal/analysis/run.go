package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one reported diagnostic bound to the file set that resolves
// its position.
type Finding struct {
	Diagnostic
	Fset *token.FileSet
	Pkg  *Package
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", Posn(f.Fset, f.Pos), f.Rule, f.Message)
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position: //krakcheck:ignore-suppressed diagnostics
// are dropped, and malformed ignore directives are reported under the
// "ignore" pseudo-rule.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		dirs, bad := collectIgnores(pkg.Fset, pkg.Syntax)
		for _, d := range bad {
			findings = append(findings, Finding{Diagnostic: d, Fset: pkg.Fset, Pkg: pkg})
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				PkgPath:   pkg.PkgPath,
				TypesInfo: pkg.TypesInfo,
				Packages:  pkgs,
			}
			pass.Report = func(d Diagnostic) {
				d.Rule = a.Name
				if suppressed(pkg.Fset, d, dirs) {
					return
				}
				findings = append(findings, Finding{Diagnostic: d, Fset: pkg.Fset, Pkg: pkg})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		pi, pj := findings[i].Fset.Position(findings[i].Pos), findings[j].Fset.Position(findings[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return findings[i].Rule < findings[j].Rule
	})
	return findings, nil
}
