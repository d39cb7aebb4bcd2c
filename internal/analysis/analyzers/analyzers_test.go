package analyzers_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"krak/internal/analysis"
	"krak/internal/analysis/analysistest"
	"krak/internal/analysis/analyzers"
)

// Each analyzer is proven against a fixture package under testdata/src
// holding both flagged lines (marked with `// want "regexp"`) and the
// clean idioms the rule must not flag.

func TestMapRange(t *testing.T) {
	analysistest.Run(t, "../testdata/src/maprange", "maprange", analyzers.MapRange)
}

func TestDetRandModelPackage(t *testing.T) {
	analysistest.Run(t, "../testdata/src/hydro", "krak/internal/hydro", analyzers.DetRand)
}

func TestDetRandNonModelPackage(t *testing.T) {
	// Same constructs, non-model import path: nothing may be flagged.
	analysistest.Run(t, "../testdata/src/tools", "krak/internal/tools", analyzers.DetRand)
}

func TestArenaEscape(t *testing.T) {
	analysistest.Run(t, "../testdata/src/arena", "arena", analyzers.ArenaEscape)
}

func TestWrapErr(t *testing.T) {
	analysistest.Run(t, "../testdata/src/krak", "krak", analyzers.WrapErr)
}

func TestBoundedParse(t *testing.T) {
	analysistest.Run(t, "../testdata/src/parse", "parse", analyzers.BoundedParse)
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "../testdata/src/flow", "flow", analyzers.CtxFlow)
}

func TestDeadExport(t *testing.T) {
	// An internal/ import path: the rule only scopes internal packages.
	analysistest.Run(t, "../testdata/src/deadexport", "krak/internal/deadexport", analyzers.DeadExport)
}

// TestMapRangeApplyFixes runs the suggested sorted-keys rewrite end to
// end: a flagged key-only map range is rewritten in place, the imports
// are added, and re-analysis of the rewritten file is clean.
func TestMapRangeApplyFixes(t *testing.T) {
	const src = `package fixme

import "fmt"

func Print(m map[string]int) {
	for k := range m {
		fmt.Println(k, m[k])
	}
}
`
	dir := t.TempDir()
	file := filepath.Join(dir, "fixme.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	pkg, err := analysis.LoadDir(dir, "fixme")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{analyzers.MapRange})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings before fixing, want 1: %v", len(findings), findings)
	}
	if len(findings[0].Fixes) == 0 {
		t.Fatal("finding carries no suggested fix")
	}

	fixed, err := analysis.ApplyFixes(findings)
	if err != nil {
		t.Fatalf("applying fixes: %v", err)
	}
	if len(fixed) != 1 {
		t.Fatalf("ApplyFixes touched %d files, want 1", len(fixed))
	}

	out, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	if !strings.Contains(text, "slices.Sorted(maps.Keys(m))") {
		t.Fatalf("rewritten file lacks sorted-keys loop:\n%s", text)
	}
	if !strings.Contains(text, `"maps"`) || !strings.Contains(text, `"slices"`) {
		t.Fatalf("rewritten file lacks added imports:\n%s", text)
	}

	repkg, err := analysis.LoadDir(dir, "fixme")
	if err != nil {
		t.Fatalf("reloading fixed fixture: %v", err)
	}
	refindings, err := analysis.Run([]*analysis.Package{repkg}, []*analysis.Analyzer{analyzers.MapRange})
	if err != nil {
		t.Fatal(err)
	}
	if len(refindings) != 0 {
		t.Fatalf("fixed file still flagged: %v", refindings)
	}
}
