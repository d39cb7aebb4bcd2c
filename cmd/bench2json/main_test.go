package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	src := `goos: linux
goarch: amd64
pkg: krak
cpu: Example CPU @ 2.00GHz
BenchmarkSweepSerial-8   	       2	 612345678 ns/op
BenchmarkSweepParallel-8 	       4	 312345678 ns/op	 1234 B/op	      56 allocs/op
PASS
ok  	krak	3.1s
pkg: krak/internal/server
BenchmarkServePredict/warm-8         	  175310	      6799 ns/op	    6191 B/op	      82 allocs/op
some unrelated line
ok  	krak/internal/server	2.2s
`
	art, err := parse(bufio.NewScanner(strings.NewReader(src)))
	if err != nil {
		t.Fatal(err)
	}
	if art.Schema != ArtifactSchema {
		t.Errorf("schema %q", art.Schema)
	}
	if len(art.Results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(art.Results))
	}
	if h := art.Host; h == nil || h.CPU != "Example CPU @ 2.00GHz" || h.NumCPU != runtime.NumCPU() || h.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("host stamp drifted: %+v", h)
	}
	r0 := art.Results[0]
	if r0.Pkg != "krak" || r0.Name != "BenchmarkSweepSerial-8" || r0.Iterations != 2 || r0.NsPerOp != 612345678 {
		t.Errorf("result 0 drifted: %+v", r0)
	}
	r2 := art.Results[2]
	if r2.Pkg != "krak/internal/server" || r2.BPerOp != 6191 || r2.AllocsSPer != 82 {
		t.Errorf("result 2 drifted: %+v", r2)
	}
}

func TestParseBenchLineRejects(t *testing.T) {
	for _, line := range []string{
		"BenchmarkTooShort",
		"BenchmarkNoIters abc 1 ns/op",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("accepted %q", line)
		}
	}
	// A bare name+iters line (custom metrics only) still parses.
	if r, ok := parseBenchLine("BenchmarkX-4 10 3.5 widgets/op 2 ns/op"); !ok || r.NsPerOp != 2 {
		t.Errorf("custom-metric line: %+v ok=%t", r, ok)
	}
}

func TestDiffFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, art Artifact) string {
		t.Helper()
		p := filepath.Join(dir, name)
		out, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldP := write("old.json", Artifact{Schema: ArtifactSchema, Results: []Result{
		{Pkg: "krak", Name: "BenchmarkA", NsPerOp: 2e6, AllocsSPer: 1000},
		{Pkg: "krak", Name: "BenchmarkGone", NsPerOp: 5e3, AllocsSPer: 7},
	}})
	newP := write("new.json", Artifact{Schema: ArtifactSchema, Results: []Result{
		{Pkg: "krak", Name: "BenchmarkA", NsPerOp: 1e6, AllocsSPer: 200},
		{Pkg: "krak", Name: "BenchmarkNew", NsPerOp: 1e3, AllocsSPer: 3},
	}})
	out, err := diffFiles(oldP, newP)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"BenchmarkA", "2.00ms", "1.00ms", "-50.0%", "-80.0%",
		"only in " + newP + ": krak.BenchmarkNew",
		"only in " + oldP + ": krak.BenchmarkGone",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestDiffFilesRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(p, []byte(`{"schema":"nope","results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"schema":"`+ArtifactSchema+`","results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diffFiles(p, good); err == nil {
		t.Fatal("bad schema accepted")
	}
}

func TestDiffFilesWarnsAcrossHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, host *Host) string {
		t.Helper()
		p := filepath.Join(dir, name)
		out, err := json.Marshal(Artifact{Schema: ArtifactSchema, Host: host, Results: []Result{
			{Pkg: "krak", Name: "BenchmarkA", NsPerOp: 1e6},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := &Host{CPU: "CPU A", NumCPU: 2, GOMAXPROCS: 2}
	b := &Host{CPU: "CPU A", NumCPU: 8, GOMAXPROCS: 8}
	for _, tc := range []struct {
		name     string
		old, new *Host
		warn     bool
	}{
		{"same host", a, a, false},
		{"different nproc", a, b, true},
		{"old unrecorded", nil, a, true},
	} {
		out, err := diffFiles(write("old.json", tc.old), write("new.json", tc.new))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.HasPrefix(out, "warning: artifacts from different hosts"); got != tc.warn {
			t.Errorf("%s: warned %t, want %t:\n%s", tc.name, got, tc.warn, out)
		}
	}
}
