package server

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"krak/pkg/krak"
)

// quickServer builds a Server in the CI smoke configuration: quick
// machines, modest cache.
func quickServer(opts ...func(*Config)) *Server {
	cfg := Config{Quick: true, CacheSize: 64}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// post sends a JSON body through the handler and returns the recorder.
func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestPredictByteIdenticalToCLI is the serving contract's acceptance
// test: POST /v1/predict must return exactly the bytes
// `krak predict -deck small -pe 16 -quick --json` prints — same
// MarshalIndent layout, same schema stamp, same trailing newline.
func TestPredictByteIdenticalToCLI(t *testing.T) {
	// The CLI path: machine from flags, scenario from flags, emit().
	m, err := krak.NewMachine(krak.WithInterconnect("qsnet"), krak.WithSeed(1), krak.WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := krak.NewScenario(krak.WithDeck("small"), krak.WithPE(16), krak.WithModel(krak.GeneralHomogeneous))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := krak.NewSession(m, sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Predict()
	if err != nil {
		t.Fatal(err)
	}
	cli, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	cli = append(cli, '\n') // fmt.Println in emit()

	s := quickServer()
	w := post(t, s, "/v1/predict", `{"deck":"small","pes":16}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Body.String(); got != string(cli) {
		t.Errorf("server response is not byte-identical to CLI --json output:\n--- server ---\n%s\n--- cli ---\n%s", got, cli)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}

	// A warm repeat must serve the same bytes from the cache.
	w2 := post(t, s, "/v1/predict", `{"deck":"small","pes":16}`)
	if w2.Body.String() != string(cli) {
		t.Error("cached response differs from first response")
	}
	if hits := s.cacheHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

// TestPredictResponseDecodes round-trips a response through the client
// side of the wire types, schema stamp included.
func TestPredictResponseDecodes(t *testing.T) {
	s := quickServer()
	w := post(t, s, "/v1/predict", `{"deck":"small","pes":8,"model":"general-het"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var res krak.Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != krak.KindPredict || res.PEs != 8 || res.TotalSeconds <= 0 {
		t.Errorf("decoded result: %+v", res)
	}
	if res.Model != "general-het" {
		t.Errorf("model = %q", res.Model)
	}
}

// burstOnHeldFill calls s.cachedBody for key from n goroutines while the
// first caller's fill is held open on a release channel, so the other
// n-1 find the entry in flight by construction and join it. It returns
// every caller's recorder and how many fills ran. (The same idiom as
// engine.TestLRUOutcomes: the callers reach Do before the release.)
func burstOnHeldFill(t *testing.T, s *Server, key string, n int) ([]*httptest.ResponseRecorder, int64) {
	t.Helper()
	started, release := make(chan struct{}), make(chan struct{})
	var fills atomic.Int64
	fill := func() ([]byte, error) {
		fills.Add(1)
		return []byte("recomputed\n"), nil
	}
	recs := make([]*httptest.ResponseRecorder, n)
	for i := range recs {
		recs[i] = httptest.NewRecorder()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.cachedBody(recs[0], key, func() ([]byte, error) {
			fills.Add(1)
			close(started) // the entry is registered: later callers coalesce
			<-release
			return []byte("filled\n"), nil
		})
	}()
	<-started
	var arrived sync.WaitGroup
	for _, w := range recs[1:] {
		wg.Add(1)
		arrived.Add(1)
		go func() {
			defer wg.Done()
			arrived.Done() // next call is Do; the fill is still held
			s.cachedBody(w, key, fill)
		}()
	}
	arrived.Wait()
	time.Sleep(50 * time.Millisecond) // settle every caller into Do
	close(release)
	wg.Wait()
	return recs, fills.Load()
}

// TestDuplicateRequestsCoalesce holds one fill open under a burst of
// identical requests and asserts the single-flight LRU ran one
// computation whose bytes every duplicate received.
func TestDuplicateRequestsCoalesce(t *testing.T) {
	s := quickServer()
	const n = 8
	recs, fills := burstOnHeldFill(t, s, "dup", n)
	if fills != 1 {
		t.Errorf("%d fills ran, want 1 (duplicates must coalesce)", fills)
	}
	for i, w := range recs {
		if w.Code != http.StatusOK || w.Body.String() != "filled\n" {
			t.Fatalf("response %d: status %d body %q, want the held fill's", i, w.Code, w.Body.String())
		}
	}
}

func TestSimulateEndpoint(t *testing.T) {
	s := quickServer()
	w := post(t, s, "/v1/simulate", `{"deck":"small","pes":8,"iterations":2,"partitioner":"rcb"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var res krak.Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != krak.KindSimulate || res.Iterations == nil || res.Iterations.Count != 2 {
		t.Errorf("decoded result: %+v", res)
	}
	if res.Partition == nil || res.Partition.Algorithm != "rcb" {
		t.Errorf("partition report: %+v", res.Partition)
	}
	// Deterministic, so cacheable: a repeat must hit.
	post(t, s, "/v1/simulate", `{"deck":"small","pes":8,"iterations":2,"partitioner":"rcb"}`)
	if hits := s.cacheHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

func TestSweepEndpoint(t *testing.T) {
	s := quickServer()
	w := post(t, s, "/v1/sweep", `{"op":"predict","decks":["small"],"pes":[4,8,16]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var sr krak.SweepResult
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Op != krak.SweepPredict || len(sr.Points) != 3 {
		t.Fatalf("sweep: op=%s points=%d", sr.Op, len(sr.Points))
	}
	for i, pt := range sr.Points {
		if pt.Index != i || pt.Deck != "small" || pt.Result == nil || pt.Result.TotalSeconds <= 0 {
			t.Errorf("point %d: %+v", i, pt)
		}
	}
}

func TestExperimentEndpoints(t *testing.T) {
	s := quickServer()
	w := get(t, s, "/v1/experiments")
	if w.Code != http.StatusOK {
		t.Fatalf("list status %d", w.Code)
	}
	var infos []krak.ExperimentInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 17 {
		t.Fatalf("registry lists %d experiments, want 17", len(infos))
	}

	w = get(t, s, "/v1/experiments/table1")
	if w.Code != http.StatusOK {
		t.Fatalf("table1 status %d: %s", w.Code, w.Body.String())
	}
	var res krak.Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != krak.KindExperiment || res.Experiment == nil || res.Experiment.ID != "table1" {
		t.Errorf("decoded result: %+v", res.Experiment)
	}

	if w := get(t, s, "/v1/experiments/nope"); w.Code != http.StatusNotFound {
		t.Errorf("unknown experiment status %d, want 404", w.Code)
	}
}

func TestMachinesEndpoint(t *testing.T) {
	s := quickServer()
	w := get(t, s, "/v1/machines")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var infos []krak.MachineInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Interconnect != "qsnet" {
		t.Errorf("machines: %+v", infos)
	}
}

func TestHealthz(t *testing.T) {
	s := quickServer()
	w := get(t, s, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var h map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Errorf("status = %v", h["status"])
	}
	if h["cache_cap"] != float64(64) {
		t.Errorf("cache_cap = %v", h["cache_cap"])
	}
}

// TestErrorStatuses drives every rejection path and checks both status
// and the JSON error envelope.
func TestErrorStatuses(t *testing.T) {
	s := quickServer()
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad json", http.MethodPost, "/v1/predict", `{`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/predict", `{"wibble":1}`, http.StatusBadRequest},
		{"trailing data", http.MethodPost, "/v1/predict", `{} {}`, http.StatusBadRequest},
		{"bad deck", http.MethodPost, "/v1/predict", `{"deck":"tiny"}`, http.StatusBadRequest},
		{"bad pe", http.MethodPost, "/v1/predict", `{"pes":-4}`, http.StatusBadRequest},
		{"bad model", http.MethodPost, "/v1/predict", `{"model":"psychic"}`, http.StatusBadRequest},
		{"bad interconnect", http.MethodPost, "/v1/predict", `{"machine":{"interconnect":"carrier-pigeon"}}`, http.StatusBadRequest},
		{"bad partitioner", http.MethodPost, "/v1/simulate", `{"partitioner":"wishful"}`, http.StatusBadRequest},
		{"bad iterations", http.MethodPost, "/v1/simulate", `{"iterations":-1}`, http.StatusBadRequest},
		{"bad sweep op", http.MethodPost, "/v1/sweep", `{"op":"hydro"}`, http.StatusBadRequest},
		{"huge sweep", http.MethodPost, "/v1/sweep", `{"decks":["small","medium","large","figure2"],"pes":[` + bigPEList(2000) + `]}`, http.StatusBadRequest},
		{"oversized body", http.MethodPost, "/v1/predict", `{"deck":"` + strings.Repeat("x", 2<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"wrong method", http.MethodGet, "/v1/predict", "", http.StatusMethodNotAllowed},
		{"unknown path", http.MethodGet, "/v1/wibble", "", http.StatusNotFound},
		{"removed jobs api", http.MethodPost, "/v1/jobs", `{"decks":["small"],"pes":[2]}`, http.StatusNotFound},
		{"bad seed query", http.MethodGet, "/v1/experiments/table1?seed=banana", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.want, w.Body.String())
			}
			if tc.want == http.StatusBadRequest || tc.want == http.StatusRequestEntityTooLarge {
				var env map[string]string
				if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env["error"] == "" {
					t.Errorf("missing error envelope: %s", w.Body.String())
				}
			}
		})
	}
}

// TestStrictDecodeRefusesTrailingData: a body may be followed by white
// space only. json.Decoder.More reports false before a closing } or ],
// so a body with a stray one used to answer 200; it must answer 400,
// and the gateway's ring key, which decodes the same way, falls back to
// the body's digest instead of the key of the clean body.
func TestStrictDecodeRefusesTrailingData(t *testing.T) {
	s := quickServer()
	const clean = `{"deck":"small","pes":16}`
	rt, _ := Lookup(http.MethodPost, "/v1/predict")
	ringKey := rt.Key
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	for _, c := range []struct {
		body string
		want int
	}{
		{clean + " \n\t", http.StatusOK},
		{clean + "}", http.StatusBadRequest},
		{clean + "]", http.StatusBadRequest},
		{clean + " }", http.StatusBadRequest},
		{clean + "} x", http.StatusBadRequest},
		{clean + " x", http.StatusBadRequest},
		{clean + " {}", http.StatusBadRequest},
	} {
		w := post(t, s, "/v1/predict", c.body)
		if w.Code != c.want {
			t.Errorf("%q: status %d, want %d: %s", c.body, w.Code, c.want, w.Body)
		}
		sameKey := ringKey(req, []byte(c.body), true) == ringKey(req, []byte(clean), true)
		if sameKey != (c.want == http.StatusOK) {
			t.Errorf("%q: shares the clean body's ring key = %v, want %v", c.body, sameKey, c.want == http.StatusOK)
		}
	}
}

func bigPEList(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", i+1)
	}
	return b.String()
}

// TestMachineCap checks the distinct-configuration cap: novel specs past
// maxMachines are refused while known ones keep serving.
func TestMachineCap(t *testing.T) {
	s := quickServer()
	for i := 0; i < maxMachines; i++ {
		ms := krak.MachineSpec{Seed: uint64(i + 1), Quick: true}.Normalized()
		if _, err := s.machineFor(ms); err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
	}
	if _, err := s.machineFor(krak.MachineSpec{Seed: 9999, Quick: true}.Normalized()); err == nil {
		t.Fatal("machine past the cap was accepted")
	}
	// A known configuration still serves.
	if _, err := s.machineFor(krak.MachineSpec{Seed: 1, Quick: true}.Normalized()); err != nil {
		t.Fatalf("known machine refused: %v", err)
	}
	// And the HTTP surface reports 503 for the novel one.
	w := post(t, s, "/v1/predict", `{"machine":{"seed":12345}}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", w.Code)
	}
}

// TestQuickDefaultApplied asserts a server started with Quick treats
// every request as quick — the contract the CI smoke job's CLI diff
// relies on.
func TestQuickDefaultApplied(t *testing.T) {
	s := quickServer()
	w := post(t, s, "/v1/predict", `{"deck":"small","pes":4}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if s.machines.Len() != 1 {
		t.Fatalf("machines = %d", s.machines.Len())
	}
	s.machines.Do(krak.MachineSpec{Quick: true}.Fingerprint(), func() (*krak.Machine, error) {
		t.Error("request was not served by the quick machine")
		return nil, errors.New("quick machine not cached")
	})
}

// TestInvalidSpecsDoNotConsumeMachineCap is the regression test for the
// cap-poisoning bug: a stream of invalid machine specs must be rejected
// without entering the machine cache, leaving the cap for real
// configurations.
func TestInvalidSpecsDoNotConsumeMachineCap(t *testing.T) {
	s := quickServer()
	for i := 0; i < maxMachines+8; i++ {
		body := fmt.Sprintf(`{"machine":{"interconnect":"bogus-%d"}}`, i)
		if w := post(t, s, "/v1/predict", body); w.Code != http.StatusBadRequest {
			t.Fatalf("invalid spec %d: status %d, want 400", i, w.Code)
		}
	}
	if n := s.machines.Len(); n != 0 {
		t.Fatalf("invalid specs entered the machine cache: len=%d", n)
	}
	if w := post(t, s, "/v1/predict", `{"deck":"small","pes":4}`); w.Code != http.StatusOK {
		t.Fatalf("valid request refused after invalid stream: %d %s", w.Code, w.Body.String())
	}
}

// TestCoalescedWaitersSurviveCancel is the regression test for the
// captured-context bug: the single-flight fill must run detached, so a
// canceled first requester cannot fail the strangers coalesced onto its
// computation.
func TestCoalescedWaitersSurviveCancel(t *testing.T) {
	s := quickServer()
	ctx, cancel := context.WithCancel(context.Background())
	first := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(`{"deck":"small","pes":4}`)).WithContext(ctx)
	done := make(chan int, 1)
	go func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, first)
		done <- w.Code
	}()
	time.Sleep(20 * time.Millisecond) // let the first request open the fill
	cancel()                          // first client disconnects mid-compute
	<-done

	// A fresh, healthy request for the same key must still succeed.
	w := post(t, s, "/v1/predict", `{"deck":"small","pes":4}`)
	if w.Code != http.StatusOK {
		t.Fatalf("request after canceled peer: status %d: %s", w.Code, w.Body.String())
	}
}

// TestBodiesCarryContentDigest: every 2xx body leaves through
// writeBody with its exact Content-Length and the RFC 9530
// Content-Digest of its bytes, rendered and cached bodies alike, while
// an error envelope carries no digest.
func TestBodiesCarryContentDigest(t *testing.T) {
	s := quickServer()
	for _, w := range []*httptest.ResponseRecorder{
		post(t, s, "/v1/predict", `{"deck":"small","pes":16}`),
		post(t, s, "/v1/predict", `{"deck":"small","pes":16}`), // the LRU hit
		get(t, s, "/v1/machines"),
		get(t, s, "/healthz"),
	} {
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		body := w.Body.Bytes()
		sum := sha256.Sum256(body)
		if got, want := w.Header().Get("Content-Digest"), "sha-256=:"+base64.StdEncoding.EncodeToString(sum[:])+":"; got != want {
			t.Errorf("Content-Digest %q, want %q", got, want)
		}
		if got := w.Header().Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Errorf("Content-Length %q for a %d-byte body", got, len(body))
		}
	}
	if w := post(t, s, "/v1/predict", `{"deck":"mega"}`); w.Code != http.StatusBadRequest || w.Header().Get("Content-Digest") != "" {
		t.Errorf("error answer: status %d, Content-Digest %q; want 400 without one", w.Code, w.Header().Get("Content-Digest"))
	}
}
