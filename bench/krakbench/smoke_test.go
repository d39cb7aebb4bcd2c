package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"
)

var metricLine = regexp.MustCompile(`(?m)^\[([a-z-]+)\] ([a-z0-9_.]+) = (\S+) \S+`)

// raceEnabled is set under -race (race_test.go), which slows the fleet
// past the smoke run's time budget.
var raceEnabled bool

// TestSmoke runs every workload in smoke mode (1 s phases, rates / 10,
// ephemeral ports) and checks that each printed all six end-to-end
// metrics and every /metrics counter, ran verification, and failed
// nothing — so a change that breaks the benchmark fails here first.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four fleets")
	}
	var out bytes.Buffer
	start := time.Now()
	err := run(context.Background(), options{smoke: true, seed: 1, root: t.TempDir(), repo: "../.."}, &out)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out.String())
	}
	if elapsed > 20*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, budget 20s", elapsed)
	}
	got := map[string]map[string]float64{}
	for _, m := range metricLine.FindAllStringSubmatch(out.String(), -1) {
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", m[0], err)
		}
		if got[m[1]] == nil {
			got[m[1]] = map[string]float64{}
		}
		got[m[1]][m[2]] = v
	}
	want := []string{"throughput_rps", "p50_ms", "p90_ms", "error_rate", "setup_s", "live_heap_mb"}
	e2e, _ := benchmarkMetrics(t)
	for name := range e2e {
		if !slices.Contains(want, name) {
			t.Errorf("BENCHMARK.json declares %s, which the smoke run does not check", name)
		}
	}
	for _, m := range counterMetrics(fleetScrape{}, fleetScrape{}, nil) {
		want = append(want, m.name)
	}
	for _, w := range workloads {
		ms := got[w.Name]
		for _, name := range want {
			if _, ok := ms[name]; !ok {
				t.Errorf("%s: metric %s not printed", w.Name, name)
			}
		}
		if ms["error_rate"] != 0 {
			t.Errorf("%s: error_rate %g, want 0", w.Name, ms["error_rate"])
		}
		if !regexp.MustCompile(`(?m)^\[` + w.Name + `\] verification: \d+ digests and \d+ bodies checked`).MatchString(out.String()) {
			t.Errorf("%s: no verification line", w.Name)
		}
	}
	if t.Failed() {
		t.Log(out.String())
	}
}

type benchmarkDoc struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONNamesTheWorkloads: BENCHMARK.json lists exactly the
// workloads this command runs, in order, with the same reasons.
func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	doc := readBenchmarkJSON(t)
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestSmokeTraced runs the traced pass and the replay on the cheapest
// workload and checks its result line carries exactly the per-layer
// metrics BENCHMARK.json declares, with their units.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two fleets")
	}
	var out bytes.Buffer
	err := run(context.Background(), options{smoke: true, seed: 1, trace: 1, workload: "predict-miss",
		root: t.TempDir(), repo: "../.."}, &out)
	if err != nil {
		t.Fatalf("traced smoke run: %v\n%s", err, out.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}
	_, layer := benchmarkMetrics(t)
	for name, unit := range layer {
		if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("per-layer metric %s (%s): got %+v, present %v", name, unit, m, ok)
		}
	}
	if len(res.Metrics) != len(layer) {
		t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(layer))
	}
	for _, want := range []string{"tracing overhead:", "decomposition:", "trace:"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Errorf("no %q line", want)
		}
	}
	if t.Failed() {
		t.Log(out.String())
	}
}
