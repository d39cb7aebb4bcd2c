package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCapture runs krakcheck with args and returns its exit status and
// standard output.
func runCapture(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code := run(args, out, os.Stderr)
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b)
}

// A run over one package must judge its exports by the whole module's
// uses: linalg's exports are used only by other packages, so a run
// naming linalg alone is as clean as the run over ./... .
func TestDeadExportIndependentOfPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	if code, out := runCapture(t, "-rules", "deadexport", "../../internal/linalg"); code != 0 {
		t.Fatalf("krakcheck on internal/linalg = %d, want 0:\n%s", code, out)
	}

	// Findings are kept for the named packages only, and still reported.
	code, out := runCapture(t, "-rules", "deadexport", "../../internal/analysis/testdata/src/deadexport")
	if code != 1 {
		t.Fatalf("krakcheck on the deadexport fixture = %d, want 1:\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d findings, want the fixture's 4:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.Contains(l, filepath.Join("testdata", "src", "deadexport")) {
			t.Errorf("finding outside the named package: %s", l)
		}
	}
}
