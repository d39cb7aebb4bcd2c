package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"krak/pkg/krak"
)

// updateGolden rewrites the machine-history golden instead of comparing:
//
//	go test ./internal/server -run TestMachineRegistryLifecycle -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the machine-history golden file")

// synthText generates a deterministic measurement file from a machine
// file: noiseless analytic-model runs over the (deck, PEs) grid.
func synthText(t *testing.T, machineFile string, decks []string, pes []int) string {
	t.Helper()
	m, err := krak.LoadMachine([]byte(machineFile))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := krak.NewScenario(krak.WithModel(krak.GeneralHeterogeneous))
	if err != nil {
		t.Fatal(err)
	}
	s, err := krak.NewSession(m, sc)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.SynthesizeDataset(context.Background(), krak.SweepPredict, decks, pes)
	if err != nil {
		t.Fatal(err)
	}
	return string(ds.Format())
}

const (
	registryMachineA = "machine labA\nnetwork a-net\nsegment 0 20 200\ncompute-scale 1.7\nquick\n"
	registryMachineB = "machine labB\nnetwork b-net\nsegment 0 200 40\ncompute-scale 1.7\nquick\n"
)

// TestMachineRegistryLifecycle walks the calibration lifecycle end to
// end: calibrate → register under the fitted fingerprint → fetch the
// history (pinned against a golden) → append same-machine data (quiet)
// → append changed-machine data (drift flagged, metric bumped) → restart
// on the same cache directory and serve the history byte-identically
// without refitting.
func TestMachineRegistryLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := quickServer(func(c *Config) { c.CacheDir = dir })

	baseText := synthText(t, registryMachineA, []string{"small", "figure2"}, []int{2, 4, 8, 16, 32})
	freshSame := synthText(t, registryMachineA, []string{"small"}, []int{3, 6, 12, 24})
	freshMoved := synthText(t, registryMachineB, []string{"small"}, []int{3, 6, 12, 24})

	// Calibrate and pull the fitted fingerprint off the result.
	calBody, err := json.Marshal(krak.CalibrateRequest{Dataset: baseText, Folds: 3, Model: "general-het"})
	if err != nil {
		t.Fatal(err)
	}
	w := post(t, s, "/v1/calibrate", string(calBody))
	if w.Code != http.StatusOK {
		t.Fatalf("calibrate: %d %s", w.Code, w.Body)
	}
	var cr krak.CalibrationResult
	if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.FittedFingerprint == "" {
		t.Fatal("calibration result carries no fitted fingerprint")
	}
	fp := cr.FittedFingerprint

	// Unregistered fingerprints are 404 for history and append alike.
	if w := get(t, s, "/v1/machines/"+fp); w.Code != http.StatusNotFound {
		t.Fatalf("history before registration: %d", w.Code)
	}
	missBody, _ := json.Marshal(krak.AppendRequest{Fingerprint: fp, Dataset: freshSame, Model: "general-het"})
	if w := post(t, s, "/v1/calibrate/append", string(missBody)); w.Code != http.StatusNotFound {
		t.Fatalf("append before registration: %d %s", w.Code, w.Body)
	}

	// Registration under the wrong fingerprint is refused.
	regBody, err := json.Marshal(krak.RegisterMachineRequest{Result: &cr, Dataset: baseText})
	if err != nil {
		t.Fatal(err)
	}
	if w := post(t, s, "/v1/machines/deadbeef", string(regBody)); w.Code != http.StatusBadRequest {
		t.Fatalf("mismatched register: %d %s", w.Code, w.Body)
	}
	w = post(t, s, "/v1/machines/"+fp, string(regBody))
	if w.Code != http.StatusOK {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}

	// The stored history round-trips the schema stamp and is pinned
	// against a golden file.
	w = get(t, s, "/v1/machines/"+fp)
	if w.Code != http.StatusOK {
		t.Fatalf("history: %d %s", w.Code, w.Body)
	}
	v1Body := w.Body.String()
	var hist krak.MachineHistory
	if err := json.Unmarshal([]byte(v1Body), &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Fingerprint != fp || len(hist.Versions) != 1 || hist.Versions[0].Version != 1 {
		t.Fatalf("history after registration: %+v", hist)
	}
	if hist.Versions[0].Dataset != baseText {
		t.Error("registered dataset text drifted")
	}
	goldenPath := filepath.Join("testdata", "golden", "machine_history.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(v1Body), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
		}
		if v1Body != string(want) {
			t.Errorf("machine history drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", v1Body, want)
		}
	}

	// Same-machine append: quiet drift check, byte-identical to the
	// library path (the contract the CLI's -append flag rides on).
	sameBody, _ := json.Marshal(krak.AppendRequest{Fingerprint: fp, Dataset: freshSame, Model: "general-het"})
	w = post(t, s, "/v1/calibrate/append", string(sameBody))
	if w.Code != http.StatusOK {
		t.Fatalf("append: %d %s", w.Code, w.Body)
	}
	var appended krak.CalibrationResult
	if err := json.Unmarshal(w.Body.Bytes(), &appended); err != nil {
		t.Fatal(err)
	}
	if appended.Drift == nil || appended.Drift.Flagged {
		t.Fatalf("same-machine append drift: %+v", appended.Drift)
	}
	m, err := krak.NewMachine(krak.WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := krak.NewScenario(krak.WithModel(krak.GeneralHeterogeneous))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := krak.NewSession(m, sc)
	if err != nil {
		t.Fatal(err)
	}
	base, err := krak.ParseDataset([]byte(baseText))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := krak.ParseDataset([]byte(freshSame))
	if err != nil {
		t.Fatal(err)
	}
	localCR, err := sess.CalibrateAppend(context.Background(), base, fresh, krak.CalibrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	localBytes, err := krak.RenderJSON(localCR)
	if err != nil {
		t.Fatal(err)
	}
	if w.Body.String() != string(localBytes) {
		t.Error("append response is not byte-identical to Session.CalibrateAppend")
	}

	// Changed-machine append: the drift flag trips and the counter
	// metric pins it.
	movedBody, _ := json.Marshal(krak.AppendRequest{Fingerprint: fp, Dataset: freshMoved, Model: "general-het"})
	w = post(t, s, "/v1/calibrate/append", string(movedBody))
	if w.Code != http.StatusOK {
		t.Fatalf("moved append: %d %s", w.Code, w.Body)
	}
	var moved krak.CalibrationResult
	if err := json.Unmarshal(w.Body.Bytes(), &moved); err != nil {
		t.Fatal(err)
	}
	if moved.Drift == nil || !moved.Drift.Flagged {
		t.Fatalf("changed-machine append did not flag drift: %+v", moved.Drift)
	}
	metrics := get(t, s, "/metrics").Body.String()
	if !strings.Contains(metrics, "krak_calib_drift_flagged_total 1") {
		t.Errorf("drift counter not pinned at 1 in /metrics:\n%s", grepMetric(metrics, "krak_calib_drift"))
	}

	// Appends stacked two more versions under the original fingerprint.
	w = get(t, s, "/v1/machines/"+fp)
	if err := json.Unmarshal(w.Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Versions) != 3 || hist.Versions[2].Version != 3 {
		t.Fatalf("history after appends: %d versions", len(hist.Versions))
	}
	finalBody := w.Body.String()

	// A restarted server on the same cache directory serves the stored
	// history byte-identically, straight from disk, without refitting.
	s2 := quickServer(func(c *Config) { c.CacheDir = dir })
	w = get(t, s2, "/v1/machines/"+fp)
	if w.Code != http.StatusOK {
		t.Fatalf("history after restart: %d %s", w.Code, w.Body)
	}
	if w.Body.String() != finalBody {
		t.Error("restarted server's history is not byte-identical")
	}
	// And the restarted registry keeps accepting appends with correct
	// version numbering.
	w = post(t, s2, "/v1/calibrate/append", string(sameBody))
	if w.Code != http.StatusOK {
		t.Fatalf("append after restart: %d %s", w.Code, w.Body)
	}
	w = get(t, s2, "/v1/machines/"+fp)
	if err := json.Unmarshal(w.Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Versions) != 4 || hist.Versions[3].Version != 4 {
		t.Fatalf("history after restart append: %+v", hist.Versions)
	}
	// Registry histories are the one disk tier: the restart's read and
	// the append's write count there.
	scrape := get(t, s2, "/metrics").Body.String()
	for series, want := range map[string]float64{
		`krak_disk_cache_hits_total{tier="registry"}`:   1,
		`krak_disk_cache_writes_total{tier="registry"}`: 1,
	} {
		if got := metricValue(t, scrape, series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
}

// grepMetric extracts the lines of a metrics dump mentioning a name, for
// failure messages.
func grepMetric(metrics, name string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestMachineRegistryBounds pins the registry's caps: novel fingerprints
// past maxRegistryMachines are refused while known ones keep accepting,
// and one machine's history is trimmed to maxRegistryVersions with
// version numbers still counting up.
func TestMachineRegistryBounds(t *testing.T) {
	reg := newMachineRegistry(nil)
	res := &krak.CalibrationResult{Model: "general-homo", Form: "linear"}
	for i := 0; i < maxRegistryMachines; i++ {
		if _, err := reg.register(fmt.Sprintf("fp-%03d", i), res, "obs small 2 0.05\n"); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	if _, err := reg.register("fp-novel", res, ""); err == nil {
		t.Fatal("registry accepted a novel fingerprint past the cap")
	} else if status := ErrorStatus(err); status != http.StatusServiceUnavailable {
		t.Fatalf("registry-full error maps to %d, want 503", status)
	}
	// Known fingerprints keep accepting versions past the cap, and the
	// history window slides while version numbers grow.
	for i := 0; i < maxRegistryVersions+3; i++ {
		if _, err := reg.register("fp-000", res, ""); err != nil {
			t.Fatalf("re-register %d: %v", i, err)
		}
	}
	v, err := reg.latest("fp-000")
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != maxRegistryVersions+4 {
		t.Fatalf("latest version %d, want %d", v.Version, maxRegistryVersions+4)
	}
	b, err := reg.history("fp-000")
	if err != nil {
		t.Fatal(err)
	}
	var hist krak.MachineHistory
	if err := json.Unmarshal(b, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Versions) != maxRegistryVersions {
		t.Fatalf("history holds %d versions, want %d", len(hist.Versions), maxRegistryVersions)
	}
	if hist.Versions[0].Version != 5 {
		t.Fatalf("oldest retained version %d, want 5", hist.Versions[0].Version)
	}
	if _, err := reg.history("fp-unknown"); ErrorStatus(err) != http.StatusNotFound {
		t.Fatalf("unknown fingerprint error maps to %d, want 404", ErrorStatus(err))
	}
}

// calibratedRegistration calibrates calibrateBody's dataset on s and
// returns the fitted fingerprint with the body that registers the result
// under it.
func calibratedRegistration(t *testing.T, s *Server) (fp, body string) {
	t.Helper()
	w := post(t, s, "/v1/calibrate", calibrateBody)
	if w.Code != http.StatusOK {
		t.Fatalf("calibrate: %d %s", w.Code, w.Body)
	}
	var cr krak.CalibrationResult
	if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	var req krak.CalibrateRequest
	if err := json.Unmarshal([]byte(calibrateBody), &req); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(krak.RegisterMachineRequest{Result: &cr, Dataset: req.Dataset})
	if err != nil {
		t.Fatal(err)
	}
	return cr.FittedFingerprint, string(b)
}

// TestRegisterFailsWhenHistoryNotPersisted is the regression test for
// swallowed registry writes: with a regular file where the registry's
// kind directory belongs, a registration used to answer 200 with nothing
// written, and a restart then lost the history. It must fail instead and
// leave the served history as it was.
func TestRegisterFailsWhenHistoryNotPersisted(t *testing.T) {
	dir := t.TempDir()
	s := quickServer(func(c *Config) { c.CacheDir = dir })
	fp, regBody := calibratedRegistration(t, s)
	blockRegistry := func() {
		t.Helper()
		if err := os.RemoveAll(filepath.Join(dir, registryKind)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, registryKind), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A new fingerprint that cannot be persisted is refused and stays
	// unknown.
	blockRegistry()
	if w := post(t, s, "/v1/machines/"+fp, regBody); w.Code != http.StatusInternalServerError {
		t.Fatalf("register over an unwritable registry: %d %s, want 500", w.Code, w.Body)
	}
	if w := get(t, s, "/v1/machines/"+fp); w.Code != http.StatusNotFound {
		t.Fatalf("history after a failed registration: %d, want 404", w.Code)
	}

	// A known fingerprint keeps serving its persisted history unchanged
	// when the next version cannot be written.
	if err := os.Remove(filepath.Join(dir, registryKind)); err != nil {
		t.Fatal(err)
	}
	w := post(t, s, "/v1/machines/"+fp, regBody)
	if w.Code != http.StatusOK {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	v1 := w.Body.String()
	blockRegistry()
	if w := post(t, s, "/v1/machines/"+fp, regBody); w.Code != http.StatusInternalServerError {
		t.Fatalf("re-register over an unwritable registry: %d %s, want 500", w.Code, w.Body)
	}
	if w := get(t, s, "/v1/machines/"+fp); w.Code != http.StatusOK || w.Body.String() != v1 {
		t.Fatalf("history after a failed re-registration: %d, changed=%v", w.Code, w.Body.String() != v1)
	}
	scrape := get(t, s, "/metrics").Body.String()
	if got := metricValue(t, scrape, `krak_disk_cache_writes_total{tier="registry"}`); got != 1 {
		t.Errorf("registry writes = %g, want 1 (only the registration that persisted)", got)
	}
}

// TestCacheDirHoldsOnlyMachineRegistry pins what a cache directory
// persists: after predict (one that partitions), simulate, calibrate and
// register traffic it holds only the registry's kind directory, and a
// server restarted on it serves the history byte-identically and the
// predict byte-identically by recomputing its partition.
func TestCacheDirHoldsOnlyMachineRegistry(t *testing.T) {
	dir := t.TempDir()
	s1 := quickServer(func(c *Config) { c.CacheDir = dir })
	const predictBody = `{"deck":"small","pes":8,"model":"mesh-specific"}`
	predict := post(t, s1, "/v1/predict", predictBody)
	if predict.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", predict.Code, predict.Body)
	}
	if w := post(t, s1, "/v1/simulate", `{"deck":"small","pes":8,"iterations":2,"partitioner":"rcb"}`); w.Code != http.StatusOK {
		t.Fatalf("simulate: %d %s", w.Code, w.Body)
	}
	fp, regBody := calibratedRegistration(t, s1)
	history := post(t, s1, "/v1/machines/"+fp, regBody)
	if history.Code != http.StatusOK {
		t.Fatalf("register: %d %s", history.Code, history.Body)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != registryKind {
		t.Fatalf("cache dir holds %v, want only [%s]", names, registryKind)
	}

	s2 := quickServer(func(c *Config) { c.CacheDir = dir })
	if w := get(t, s2, "/v1/machines/"+fp); w.Code != http.StatusOK || w.Body.String() != history.Body.String() {
		t.Errorf("restarted history: %d, byte-identical=%v", w.Code, w.Body.String() == history.Body.String())
	}
	if w := post(t, s2, "/v1/predict", predictBody); w.Code != http.StatusOK || w.Body.String() != predict.Body.String() {
		t.Errorf("restarted predict: %d, byte-identical=%v", w.Code, w.Body.String() == predict.Body.String())
	}
	if got := metricValue(t, get(t, s2, "/metrics").Body.String(), "krak_partition_computes_total"); got == 0 {
		t.Error("restarted predict computed no partition; nothing but the registry should persist")
	}
}
