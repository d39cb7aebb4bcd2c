// Package analysistest checks one analyzer against a fixture package
// annotated with `// want "regex"` comments, in the style of
// golang.org/x/tools/go/analysis/analysistest but built on the in-tree
// stdlib-only framework.
//
// A fixture is a directory of .go files loaded under an explicit import
// path (so path-scoped analyzers see the package they expect). Every
// line that should be flagged carries a trailing comment of the form
//
//	code() // want "regexp" "another regexp"
//
// with one quoted regexp per expected diagnostic on that line. The test
// fails on any finding without a matching want and any want without a
// matching finding, printing both sides.
package analysistest

import (
	"bufio"
	"os"
	"regexp"
	"testing"

	"krak/internal/analysis"
)

var (
	wantRE = regexp.MustCompile(`//\s*want\s+(.+)$`)
	// A want pattern is double-quoted, or backtick-quoted when the regexp
	// itself needs double quotes or backslashes.
	quoteRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// Run loads the fixture package at dir under the import path pkgPath,
// applies the analyzer through the same pipeline the krakcheck driver
// uses (so //krakcheck:ignore filtering is in effect), and compares the
// surviving findings against the fixture's want annotations.
//
//krakcheck:ignore deadexport a test harness, like x/tools' analysistest: its callers are the analyzers' _test.go files by design
func Run(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	findings, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
	}
	wants := collectWants(t, pkg.GoFiles)

	for _, f := range findings {
		p := f.Fset.Position(f.Pos)
		if !claim(wants, p.Filename, p.Line, f.Message) {
			t.Errorf("unexpected finding: %s", f.String())
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.raw)
		}
	}
}

// collectWants scans fixture files for `// want "re"...` annotations.
func collectWants(t *testing.T, files []string) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			quoted := quoteRE.FindAllStringSubmatch(m[1], -1)
			if len(quoted) == 0 {
				t.Errorf("%s:%d: want annotation without a quoted regexp", name, line)
				continue
			}
			for _, q := range quoted {
				pat := q[1]
				if q[0][0] == '`' {
					pat = q[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, line, pat, err)
				}
				wants = append(wants, &expectation{file: name, line: line, re: re, raw: pat})
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatalf("reading fixture %s: %v", name, err)
		}
	}
	return wants
}

// claim marks the first unclaimed expectation matching (file, line,
// message) as hit.
func claim(wants []*expectation, file string, line int, message string) bool {
	for _, w := range wants {
		if !w.hit && w.file == file && w.line == line && w.re.MatchString(message) {
			w.hit = true
			return true
		}
	}
	return false
}
