package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"krak/pkg/krak"
)

// captureStdout runs one subcommand runner with os.Stdout redirected,
// returning what it printed. The runners write through fmt.Print*, so
// this is the only seam the CLI layer needs.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var b bytes.Buffer
		io.Copy(&b, r)
		done <- b.String()
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatalf("runner failed: %v\noutput so far:\n%s", runErr, out)
	}
	return out
}

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("pe", " 2, 4 ,8,,")
	if err != nil || len(got) != 3 || got[0] != 2 || got[2] != 8 {
		t.Errorf("parseIntList = %v, %v", got, err)
	}
	for _, bad := range []string{"", ",", "0", "-4", "x", "2,huge"} {
		if _, err := parseIntList("pe", bad); err == nil {
			t.Errorf("parseIntList(%q) accepted", bad)
		}
	}
	if _, err := parseIntList("pe", strings.TrimSuffix(strings.Repeat("1,", 5000), ",")); err == nil {
		t.Error("parseIntList accepted an oversized list")
	}
}

func TestRunPredictQuick(t *testing.T) {
	out := captureStdout(t, func() error {
		return runPredict([]string{"-deck", "small", "-pe", "16", "-quick", "-json"})
	})
	var res map[string]any
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("predict --json did not decode: %v\n%s", err, out)
	}
	text := captureStdout(t, func() error {
		return runPredict([]string{"-deck", "small", "-pe", "16", "-quick"})
	})
	if !strings.Contains(text, "predict") && !strings.Contains(text, "Predicted") {
		t.Errorf("text rendering looks wrong:\n%s", text)
	}
	if err := runPredict([]string{"-model", "oracle", "-quick"}); err == nil {
		t.Error("bad model accepted")
	}
}

func TestRunSimulateQuick(t *testing.T) {
	out := captureStdout(t, func() error {
		return runSimulate([]string{"-deck", "small", "-pe", "8", "-iterations", "1", "-quick", "-json"})
	})
	if !strings.Contains(out, `"kind": "simulate"`) || !strings.Contains(out, "total_s") {
		t.Errorf("simulate --json lacks timings:\n%s", out)
	}
}

func TestRunPartQuick(t *testing.T) {
	out := captureStdout(t, func() error {
		return runPart([]string{"-deck", "small", "-pe", "4", "-algo", "rcb", "-quick"})
	})
	if !strings.Contains(out, "rcb") {
		t.Errorf("part output lacks the algorithm:\n%s", out)
	}
}

func TestRunSweepQuick(t *testing.T) {
	out := captureStdout(t, func() error {
		return runSweep([]string{"-deck", "small", "-pe", "2,4", "-quick", "-parallel", "2", "-json"})
	})
	if !strings.Contains(out, "points") {
		t.Errorf("sweep --json lacks points:\n%s", out)
	}
	if err := runSweep([]string{"-pe", "2", "-iterations", "-1", "-quick"}); err == nil {
		t.Error("negative -iterations accepted")
	}
	if err := runSweep([]string{"-deck", ",", "-pe", "2", "-quick"}); err == nil {
		t.Error("empty sweep grid accepted")
	}
	// The grid is built as /v1/sweep builds it, under the same
	// MaxSweepPoints bound: 2 decks x 4096 PEs is refused before any
	// point is built.
	pes := make([]string, krak.MaxSweepPoints)
	for i := range pes {
		pes[i] = strconv.Itoa(i + 1)
	}
	if err := runSweep([]string{"-deck", "small,medium", "-pe", strings.Join(pes, ","), "-quick"}); !errors.Is(err, krak.ErrBadOption) {
		t.Errorf("oversized sweep grid: err = %v, want krak.ErrBadOption", err)
	}
}

func TestRunHydroTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return runHydro([]string{"-w", "8", "-h", "4", "-steps", "2", "-report", "0"})
	})
	if len(out) == 0 {
		t.Error("hydro printed nothing")
	}
}

func TestRunExperimentsList(t *testing.T) {
	out := captureStdout(t, func() error {
		return runExperiments([]string{"-list"})
	})
	if !strings.Contains(out, "table6") {
		t.Errorf("experiment list lacks table6:\n%s", out)
	}
}

// TestRunCompareCatalog drives the compare subcommand over the real
// checked-in catalog exactly as the acceptance flow does, in both
// renderings.
func TestRunCompareCatalog(t *testing.T) {
	catalog := filepath.Join("..", "..", "machines")
	out := captureStdout(t, func() error {
		return runCompare([]string{"-scenario", "small", "-machines", catalog, "-pe", "2,4", "-quick"})
	})
	for _, want := range []string{"es45-qsnet", "(baseline)", "overtakes"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare text lacks %q:\n%s", want, out)
		}
	}
	jsonOut := captureStdout(t, func() error {
		return runCompare([]string{"-deck", "small", "-machines", catalog, "-pe", "2,4", "-quick", "-json"})
	})
	var rep struct {
		Schema   string `json:"schema"`
		Baseline string `json:"baseline"`
	}
	if err := json.Unmarshal([]byte(jsonOut), &rep); err != nil {
		t.Fatalf("compare --json did not decode: %v", err)
	}
	if rep.Schema != "krak.compare/v1" || rep.Baseline != "es45-qsnet" {
		t.Errorf("schema %q baseline %q", rep.Schema, rep.Baseline)
	}

	if err := runCompare([]string{"-machines", "no-such-dir", "-quick"}); err == nil {
		t.Error("missing catalog accepted")
	}
	if err := runCompare([]string{"-machines", catalog, "-parallel", "-1"}); err == nil {
		t.Error("negative -parallel accepted")
	}
	if err := runCompare([]string{"-machines", catalog, "-pe", "nope", "-quick"}); err == nil {
		t.Error("bad -pe accepted")
	}
}

// TestMachineFlagsOverrideFile pins the precedence rule: explicitly set
// flags override the machine file's directives, unset ones keep them.
func TestMachineFlagsOverrideFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.machine")
	src := "machine filed\ninterconnect gige\nseed 7\nquick\ntopology fat-tree 0.2 8\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return runPredict([]string{"-machine-file", path, "-net", "qsnet", "-deck", "small", "-pe", "4", "-json"})
	})
	if !strings.Contains(out, "QsNet") {
		t.Errorf("-net did not override the file's interconnect:\n%s", out)
	}
	if err := runPredict([]string{"-machine-file", filepath.Join(t.TempDir(), "absent"), "-quick"}); err == nil {
		t.Error("missing machine file accepted")
	}
}
