package server

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
	// Each version is its own entry, and a write keeps only the newest
	// two: versions 3 and 4 are on disk, 1 and 2 were pruned.
	for v, want := range map[int]bool{1: false, 2: false, 3: true, 4: true} {
		_, err := os.Stat(filepath.Join(dir, registryKind, fp, fmt.Sprintf("%d.art", v)))
		if got := err == nil; got != want {
			t.Errorf("entry for version %d present = %v, want %v", v, got, want)
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
	reg := &quickServer(func(c *Config) { c.CacheDir = t.TempDir() }).machineReg
	res := &krak.CalibrationResult{Model: "general-homo", Form: "linear"}
	fp := func(i int) string { return fmt.Sprintf("%032x", i) }
	for i := 0; i < maxRegistryMachines; i++ {
		if _, err := reg.register(fp(i), res, "obs small 2 0.05\n"); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	if _, err := reg.register(fp(maxRegistryMachines), res, ""); err == nil {
		t.Fatal("registry accepted a novel fingerprint past the cap")
	} else if status := ErrorStatus(err); status != http.StatusServiceUnavailable {
		t.Fatalf("registry-full error maps to %d, want 503", status)
	}
	// Known fingerprints keep accepting versions past the cap, and the
	// history window slides while version numbers grow.
	for i := 0; i < maxRegistryVersions+3; i++ {
		if _, err := reg.register(fp(0), res, ""); err != nil {
			t.Fatalf("re-register %d: %v", i, err)
		}
	}
	h, err := reg.read(fp(0))
	if err != nil {
		t.Fatal(err)
	}
	if v := h.Versions[len(h.Versions)-1]; v.Version != maxRegistryVersions+4 {
		t.Fatalf("latest version %d, want %d", v.Version, maxRegistryVersions+4)
	}
	b, err := reg.history(fp(0))
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
	if _, err := reg.history(fp(maxRegistryMachines + 1)); ErrorStatus(err) != http.StatusNotFound {
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
	// when the next version cannot be written. A regular file where the
	// fingerprint's staging directory belongs blocks the write but not
	// the reads (permission bits would not stop a root test run).
	if err := os.Remove(filepath.Join(dir, registryKind)); err != nil {
		t.Fatal(err)
	}
	w := post(t, s, "/v1/machines/"+fp, regBody)
	if w.Code != http.StatusOK {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	v1 := w.Body.String()
	stage := filepath.Join(dir, registryKind, fp, ".tmp")
	if err := os.RemoveAll(stage); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stage, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if w := post(t, s, "/v1/machines/"+fp, regBody); w.Code != http.StatusInternalServerError {
		t.Fatalf("re-register over an unwritable registry: %d %s, want 500", w.Code, w.Body)
	}
	if w := get(t, s, "/v1/machines/"+fp); w.Code != http.StatusOK || w.Body.String() != v1 {
		t.Fatalf("history after a failed re-registration: %d, changed=%v", w.Code, w.Body.String() != v1)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, registryKind, fp)); err != nil || len(entries) != 2 {
		t.Errorf("fingerprint directory holds %v (%v), want only the staging file and version 1", entries, err)
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

// TestConcurrentAppendsLoseNothing is the regression test for lost
// appends: six concurrent appends to one replica used to all answer 200
// while the newest version held the observations of only some of them.
// Every append that answers 200 must be in the newest version's dataset,
// and every other one must answer 409.
func TestConcurrentAppendsLoseNothing(t *testing.T) {
	s := quickServer(func(c *Config) { c.CacheDir = t.TempDir() })
	fp, regBody := calibratedRegistration(t, s)
	if w := post(t, s, "/v1/machines/"+fp, regBody); w.Code != http.StatusOK {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	// Each append measures one PE count neither the base dataset nor
	// any other append has.
	pes := []int{3, 5, 6, 7, 9, 10}
	codes := make([]int, len(pes))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, pe := range pes {
		body, err := json.Marshal(krak.AppendRequest{Fingerprint: fp, Dataset: fmt.Sprintf("obs small %d 0.03\n", pe)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			codes[i] = post(t, s, "/v1/calibrate/append", string(body)).Code
		}()
	}
	close(start)
	wg.Wait()

	var h krak.MachineHistory
	if err := json.Unmarshal(get(t, s, "/v1/machines/"+fp).Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	newest := h.Versions[len(h.Versions)-1]
	ds, err := krak.ParseDataset([]byte(newest.Dataset))
	if err != nil {
		t.Fatal(err)
	}
	stored := map[int]bool{}
	for _, o := range ds.Observations {
		stored[o.PEs] = true
	}
	ok := 0
	for i, pe := range pes {
		switch codes[i] {
		case http.StatusOK:
			ok++
			if !stored[pe] {
				t.Errorf("append of PE %d answered 200 but is not in version %d's dataset", pe, newest.Version)
			}
		case http.StatusConflict:
		default:
			t.Errorf("append of PE %d answered %d, want 200 or 409", pe, codes[i])
		}
	}
	t.Logf("append statuses %v", codes)
	if ok == 0 || newest.Version != 1+ok {
		t.Errorf("%d appends answered 200 and the newest version is %d, want at least one and version %d", ok, newest.Version, 1+ok)
	}
}

// TestServersSharingOneDirectory is the regression test for lost
// versions: servers A and B on one cache directory register the same
// fingerprint alternately. Both must serve every version, with identical
// bytes, and a reader polling both throughout must never see a 404 once
// version 1 exists. A memory copy per server used to serve stale
// histories and overwrite the other server's newer entry.
func TestServersSharingOneDirectory(t *testing.T) {
	dir := t.TempDir()
	a := quickServer(func(c *Config) { c.CacheDir = dir })
	b := quickServer(func(c *Config) { c.CacheDir = dir })
	fp, regBody := calibratedRegistration(t, a)

	var registered atomic.Bool
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			srv := []*Server{a, b}[i%2]
			was := registered.Load()
			if w := get(t, srv, "/v1/machines/"+fp); was && w.Code != http.StatusOK {
				t.Errorf("read %d after version 1 existed: %d %s", i, w.Code, w.Body)
				return
			}
		}
	}()
	const rounds = 3
	for i := range 2 * rounds {
		if w := post(t, []*Server{a, b}[i%2], "/v1/machines/"+fp, regBody); w.Code != http.StatusOK {
			t.Errorf("registration %d: %d %s", i+1, w.Code, w.Body)
		}
		registered.Store(true)
	}
	close(done)
	reader.Wait()

	fromA, fromB := get(t, a, "/v1/machines/"+fp), get(t, b, "/v1/machines/"+fp)
	if fromA.Code != http.StatusOK || fromA.Body.String() != fromB.Body.String() {
		t.Fatalf("A answered %d, B %d; identical bytes = %v", fromA.Code, fromB.Code, fromA.Body.String() == fromB.Body.String())
	}
	var hist krak.MachineHistory
	if err := json.Unmarshal(fromA.Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, v := range hist.Versions {
		got = append(got, v.Version)
	}
	if want := []int{1, 2, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("shared history holds versions %v, want %v", got, want)
	}
}

// TestMachineRegistryRefusesPathTraversal sends fingerprints that would
// leave <dir>/registry, hide in it, or overflow a name, through GET and
// POST /v1/machines/{fingerprint}. Each is refused with 400 before any
// file is touched: files planted where they lead stay unread (a read
// would have dropped them as corrupt), and nothing new is created.
func TestMachineRegistryRefusesPathTraversal(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	s := quickServer(func(c *Config) { c.CacheDir = dir })
	_, regBody := calibratedRegistration(t, s)
	long := strings.Repeat("a", 200)
	planted := []string{
		filepath.Join(root, "x", "1.art"),
		filepath.Join(dir, registryKind, ".hidden", "1.art"),
		filepath.Join(dir, registryKind, long, "1.art"),
	}
	for _, p := range planted {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("planted"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ path, fp string }{
		{"..%2F..%2Fx", "../../x"},
		{".hidden", ".hidden"},
		{long, long},
	} {
		if w := get(t, s, "/v1/machines/"+c.path); w.Code != http.StatusBadRequest {
			t.Errorf("GET %q: %d %s, want 400", c.path, w.Code, w.Body)
		}
		var req krak.RegisterMachineRequest
		if err := json.Unmarshal([]byte(regBody), &req); err != nil {
			t.Fatal(err)
		}
		req.Result.FittedFingerprint = c.fp
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if w := post(t, s, "/v1/machines/"+c.path, string(body)); w.Code != http.StatusBadRequest {
			t.Errorf("POST %q: %d %s, want 400", c.path, w.Code, w.Body)
		}
	}
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	want := slices.Sorted(slices.Values(planted))
	if !slices.Equal(files, want) {
		t.Fatalf("files under the test root = %v, want only the planted %v", files, want)
	}
}

// TestRegistryWithoutCacheDir pins the private directory a server
// without -cache-dir keeps its registry in: New and reads make nothing,
// the first registration makes one directory, and Close removes it.
func TestRegistryWithoutCacheDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	made := func() []os.DirEntry {
		t.Helper()
		entries, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	s := quickServer()
	fp, regBody := calibratedRegistration(t, s)
	if w := get(t, s, "/v1/machines/"+fp); w.Code != http.StatusNotFound {
		t.Fatalf("history before registration: %d", w.Code)
	}
	if entries := made(); len(entries) != 0 {
		t.Fatalf("New and a read made %v", entries)
	}
	w := post(t, s, "/v1/machines/"+fp, regBody)
	if w.Code != http.StatusOK {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	if entries := made(); len(entries) != 1 || !strings.HasPrefix(entries[0].Name(), "krak-registry-") {
		t.Fatalf("first registration made %v, want one krak-registry-* directory", entries)
	}
	if got := get(t, s, "/v1/machines/"+fp); got.Code != http.StatusOK || got.Body.String() != w.Body.String() {
		t.Fatalf("history: %d, same bytes as the registration = %v", got.Code, got.Body.String() == w.Body.String())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if entries := made(); len(entries) != 0 {
		t.Fatalf("Close left %v", entries)
	}
}

// TestCommitFromPrunedVersionIsRefused covers a write whose base is so
// stale that its next version was already pruned: creating that entry
// succeeds, but it is never the newest, so commit removes it and
// answers 409, and the newest history stays as it was.
func TestCommitFromPrunedVersionIsRefused(t *testing.T) {
	dir := t.TempDir()
	reg := &quickServer(func(c *Config) { c.CacheDir = dir }).machineReg
	res := &krak.CalibrationResult{Model: "general-homo", Form: "linear"}
	fp := fmt.Sprintf("%032x", 7)
	if _, err := reg.register(fp, res, ""); err != nil {
		t.Fatal(err)
	}
	stale, err := reg.read(fp)
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if _, err := reg.register(fp, res, ""); err != nil {
			t.Fatal(err)
		}
	}
	before, err := reg.history(fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.commit(fp, stale, res, ""); !errors.Is(err, errVersionTaken) || ErrorStatus(err) != http.StatusConflict {
		t.Fatalf("commit from pruned version 1 = %v, want errVersionTaken (409)", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, registryKind, fp))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{".tmp", "3.art", "4.art"}; !slices.Equal(names, want) {
		t.Errorf("fingerprint directory holds %v, want %v", names, want)
	}
	if after, err := reg.history(fp); err != nil || string(after) != string(before) {
		t.Errorf("history changed after the refused commit (err %v)", err)
	}
}

// TestCommitBuiltOnIsKept covers a write whose version another write
// built on before the first one listed the directory. The entries are
// staged through the DiskCache in the order of that race: the write's
// own version 2, then a version 3, then the write's settle step. When
// version 3 holds the write's version 2, the write stands: commit used
// to remove version 2 and answer 409 though version 3 holds it, and a
// client retrying that 409 stored its calibration twice. When version
// 3 was built on another version 2, the write's entry is a stale
// re-creation: it is removed and refused.
func TestCommitBuiltOnIsKept(t *testing.T) {
	reg := &quickServer(func(c *Config) { c.CacheDir = t.TempDir() }).machineReg
	res := &krak.CalibrationResult{Model: "general-homo", Form: "linear"}
	for i, builtOn := range []bool{true, false} {
		fp := fmt.Sprintf("%032x", 8+i)
		if _, err := reg.register(fp, res, "obs small 2 0.05\n"); err != nil {
			t.Fatal(err)
		}
		h, err := reg.read(fp)
		if err != nil {
			t.Fatal(err)
		}
		render := func(datasets ...string) []byte {
			t.Helper()
			versions := h.Versions
			for _, ds := range datasets {
				versions = append(slices.Clip(versions), krak.MachineVersion{Version: len(versions) + 1, Dataset: ds, Result: res})
			}
			b, err := krak.RenderJSON(&krak.MachineHistory{Fingerprint: fp, Versions: versions})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		ours, other := "obs small 4 0.03\n", "obs small 16 0.01\n"
		newer := render(ours, "obs small 8 0.02\n")
		if !builtOn {
			newer = render(other, "obs small 8 0.02\n")
		}
		dc, kind := reg.disk.Load(), registryKind+"/"+fp
		mine := render(ours)
		if err := dc.Put(kind, "2", mine); err != nil {
			t.Fatal(err)
		}
		if err := dc.Put(kind, "3", newer); err != nil {
			t.Fatal(err)
		}
		err = reg.settle(dc, fp, 2, mine)
		_, kept := dc.Get(kind, "2")
		if builtOn && (err != nil || !kept) {
			t.Errorf("version 3 holds the write's version 2, yet settle = %v and the entry is kept = %v", err, kept)
		}
		if !builtOn && (!errors.Is(err, errVersionTaken) || ErrorStatus(err) != http.StatusConflict || kept) {
			t.Errorf("version 3 holds another version 2, yet settle = %v and the entry is kept = %v; want errVersionTaken (409), removed", err, kept)
		}
		if b, err := reg.history(fp); err != nil || string(b) != string(newer) {
			t.Errorf("the newest history is not version 3 (err %v)", err)
		}
	}
}
