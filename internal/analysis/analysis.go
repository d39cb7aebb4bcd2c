// Package analysis is krak's in-tree static-analysis framework: a
// deliberately small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface (Analyzer, Pass, Diagnostic,
// SuggestedFix) plus a package loader built on `go list -export` and the
// standard go/types checker.
//
// The repo cannot vendor x/tools (the build must work from a clean clone
// with no module downloads), so the framework keeps the same shape as the
// upstream API: an Analyzer here ports to a x/tools analyzer by swapping
// the import path and registering it with a multichecker. Everything an
// analyzer touches — token.FileSet, ast.File, types.Info — is the standard
// library's.
//
// The analyzers under analyzers/ encode the invariants the codebase
// otherwise enforces only by convention, comment, and golden test:
// determinism of model output, arena (scratch-buffer) hygiene, typed-error
// discipline, bounded parsing, context propagation, and no exports that
// only tests use. `cmd/krakcheck` is the driver; `make lint` runs it over
// ./... and CI keeps it green.
//
// Suppression: a finding can be silenced with a comment on the flagged
// line or the line above it:
//
//	//krakcheck:ignore <rule> <reason>
//
// The reason is mandatory — an ignore without one is itself reported —
// so every suppression in the tree documents why the invariant does not
// apply at that site.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one named check. Mirrors x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name is the rule name used in diagnostics, -rules filters, and
	// //krakcheck:ignore comments. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description: the invariant the rule protects
	// and what a violation looks like.
	Doc string

	// Run reports findings on one package via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Files holds the parsed non-test sources of the package.
	Files []*ast.File

	// Pkg is the type-checked package and PkgPath its import path.
	Pkg     *types.Package
	PkgPath string

	// TypesInfo records types, definitions, and uses for every
	// expression in Files.
	TypesInfo *types.Info

	// Packages is every package loaded in this run, this one included:
	// the scope of rules that need whole-program facts, such as which
	// exports some other package uses.
	Packages []*Package

	// Report delivers one finding. The framework attaches the analyzer
	// name and handles //krakcheck:ignore filtering.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string

	// Rule is filled by the framework from the reporting analyzer.
	Rule string

	// Fixes holds safe rewrites the driver may apply under -fix.
	Fixes []SuggestedFix
}

// SuggestedFix is a set of edits that resolve the diagnostic.
type SuggestedFix struct {
	Edits []TextEdit

	// AddImports lists import paths the edited file must import for the
	// rewritten code to compile; the fix applier inserts any that are
	// missing. (x/tools expresses this as more TextEdits; a declarative
	// list keeps the analyzers simple.)
	AddImports []string
}

// TextEdit replaces the source range [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// Posn renders a token.Pos as file:line:col for driver output.
func Posn(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}
