package faultinject

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseFaultPlan(t *testing.T) {
	src := []byte(`
# chaos drill for the gateway suite
plan drill
seed 42
scope /v1/predict
scope /v1/simulate
error-rate 0.25
error-status 503
latency-rate 0.5
latency 1ms 20ms
truncate-rate 0.1
corrupt-rate 0.05
`)
	p, err := ParseFaultPlan(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "drill" || p.Seed != 42 || p.ErrorRate != 0.25 || p.ErrorStatus != 503 {
		t.Fatalf("parsed plan %+v", p)
	}
	if len(p.Scopes) != 2 || p.Scopes[0] != "/v1/predict" {
		t.Fatalf("scopes %v", p.Scopes)
	}
	if p.LatencyMin != time.Millisecond || p.LatencyMax != 20*time.Millisecond {
		t.Fatalf("latency bounds %v %v", p.LatencyMin, p.LatencyMax)
	}
	if p.TruncateRate != 0.1 || p.CorruptRate != 0.05 {
		t.Fatalf("mangle rates %g %g", p.TruncateRate, p.CorruptRate)
	}
}

func TestParseFaultPlanDefaults(t *testing.T) {
	p, err := ParseFaultPlan([]byte("error-rate 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 1 || p.ErrorStatus != http.StatusInternalServerError {
		t.Fatalf("defaults not applied: %+v", p)
	}
}

func TestParseFaultPlanRejects(t *testing.T) {
	cases := map[string]string{
		"unknown directive":   "frobnicate 1\n",
		"bad rate":            "error-rate 1.5\n",
		"negative rate":       "error-rate -0.1\n",
		"nan rate":            "error-rate NaN\n",
		"bad status low":      "error-status 200\n",
		"bad status high":     "error-status 700\n",
		"zero seed":           "seed 0\n",
		"bad latency order":   "latency 10ms 1ms\n",
		"latency over cap":    "latency 1s 20s\n",
		"relative scope":      "scope v1/predict\n",
		"rates sum over 1":    "error-rate 0.5\ntruncate-rate 0.4\ncorrupt-rate 0.2\n",
		"plan extra args":     "plan a b\n",
		"too many scopes":     strings.Repeat("scope /x\n", maxPlanScopes+1),
		"oversized input":     strings.Repeat(" ", maxPlanBytes+1),
		"line count over cap": strings.Repeat("\n", maxPlanLines+1),
	}
	for name, src := range cases {
		if _, err := ParseFaultPlan([]byte(src)); err == nil {
			t.Errorf("%s: accepted %q", name, src[:min(len(src), 40)])
		}
	}
}

// handler returning a fixed JSON-ish body for mangle tests.
func okHandler(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, body)
	}
}

func TestMiddlewareInjectsErrors(t *testing.T) {
	in := New(&Plan{Seed: 7, ErrorRate: 1, ErrorStatus: 503})
	h := in.Middleware(okHandler(`{"ok":true}`))
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/predict", strings.NewReader(`{}`)))
	if rec.Code != 503 {
		t.Fatalf("status %d, want injected 503", rec.Code)
	}
	if got := in.Totals()[KindError]; got != 1 {
		t.Fatalf("error total %d, want 1", got)
	}
}

func TestMiddlewareTruncates(t *testing.T) {
	body := `{"schema":"krak/result/v1","total":1.5}` + "\n"
	in := New(&Plan{Seed: 7, TruncateRate: 1})
	h := in.Middleware(okHandler(body))
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/predict", strings.NewReader(`{}`)))
	if got := rec.Body.String(); len(got) != len(body)/2 || got != body[:len(body)/2] {
		t.Fatalf("truncated body %q, want first half of %q", got, body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)/2) {
		t.Fatalf("Content-Length %q after truncation to %d bytes", cl, len(body)/2)
	}
	if in.Totals()[KindTruncate] != 1 {
		t.Fatalf("truncate total %v", in.Totals())
	}
}

func TestMiddlewareCorrupts(t *testing.T) {
	body := `{"schema":"krak/result/v1","total":1.5}` + "\n"
	in := New(&Plan{Seed: 7, CorruptRate: 1})
	h := in.Middleware(okHandler(body))
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/predict", strings.NewReader(`{}`)))
	got := rec.Body.String()
	if len(got) != len(body) {
		t.Fatalf("corrupted body length %d, want %d", len(got), len(body))
	}
	if got == body {
		t.Fatal("corruption left the body unchanged")
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("corruption changed the status to %d", rec.Code)
	}
}

// TestCorruptKeepsJSONValid pins what the corrupt kind does to a body:
// digits change to other nonzero digits and nothing else moves, so a
// valid JSON body stays valid JSON and only a digest of the bytes can
// catch it. A body without digits still changes, by the XOR fallback.
func TestCorruptKeepsJSONValid(t *testing.T) {
	body := []byte(`{"schema":"krak.result/v1","pes":90,"total_s":0.0109,"tag":"\u2028 9"}`)
	for seed := uint64(1); seed <= 200; seed++ {
		got := bytes.Clone(body)
		corruptBytes(got, seed)
		if bytes.Equal(got, body) {
			t.Fatalf("seed %d: body unchanged", seed)
		}
		if !json.Valid(got) {
			t.Fatalf("seed %d: corrupted body %s is not valid JSON", seed, got)
		}
		for i := range got {
			if got[i] == body[i] {
				continue
			}
			if got[i] < '1' || got[i] > '9' || body[i] < '0' || body[i] > '9' {
				t.Fatalf("seed %d: byte %d changed %q -> %q, want a digit to a nonzero digit", seed, i, body[i], got[i])
			}
		}
	}
	plain := []byte(`{"ok":true}`)
	got := bytes.Clone(plain)
	corruptBytes(got, 7)
	if bytes.Equal(got, plain) {
		t.Fatal("a body without digits was left unchanged")
	}
}

func TestMiddlewareScope(t *testing.T) {
	in := New(&Plan{Seed: 7, ErrorRate: 1, Scopes: []string{"/v1/sweep"}})
	h := in.Middleware(okHandler("ok"))
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/predict", strings.NewReader(`{}`)))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok" {
		t.Fatalf("out-of-scope request was touched: %d %q", rec.Code, rec.Body.String())
	}
}

func TestNilInjectorPassthrough(t *testing.T) {
	var in *Injector
	h := in.Middleware(okHandler("ok"))
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/predict", nil))
	if rec.Body.String() != "ok" {
		t.Fatal("nil injector altered the response")
	}
	if rt := in.RoundTripper(nil); rt != http.DefaultTransport {
		t.Fatal("nil injector wrapped the transport")
	}
}

// TestDeterministicTotals is the acceptance-criteria property: the same
// seed over the same request multiset injects the same fault sequence,
// whatever order the requests run in.
func TestDeterministicTotals(t *testing.T) {
	plan := &Plan{Seed: 99, ErrorRate: 0.3, TruncateRate: 0.2, CorruptRate: 0.1}
	bodies := []string{`{"pes":4}`, `{"pes":8}`, `{"pes":16}`, `{"pes":4}`, `{"pes":8}`, `{"pes":4}`}

	run := func(order []int) map[string]int64 {
		in := New(plan)
		h := in.Middleware(okHandler(`{"ok":true}`))
		for _, i := range order {
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest("POST", "/v1/predict", strings.NewReader(bodies[i])))
		}
		return in.Totals()
	}

	forward := run([]int{0, 1, 2, 3, 4, 5})
	reversed := run([]int{5, 4, 3, 2, 1, 0})
	for kind, n := range forward {
		if reversed[kind] != n {
			t.Fatalf("totals diverge across orderings: %v vs %v", forward, reversed)
		}
	}
	// And a different seed must (for this plan) not be forced to match —
	// the decisions actually depend on the seed.
	other := (func() map[string]int64 {
		p2 := *plan
		p2.Seed = 100
		in := New(&p2)
		h := in.Middleware(okHandler(`{"ok":true}`))
		for i := range bodies {
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest("POST", "/v1/predict", strings.NewReader(bodies[i])))
		}
		return in.Totals()
	})()
	same := true
	for kind, n := range forward {
		if other[kind] != n {
			same = false
		}
	}
	if same && forward[KindError]+forward[KindTruncate]+forward[KindCorrupt] > 0 {
		t.Log("note: seeds 99 and 100 happened to produce identical totals (possible, just unlikely)")
	}
}

// TestRepeatsDrawIndependently pins the occurrence dimension: identical
// requests draw per-occurrence, so a 50% plan does not fail either all
// or none of a repeated scenario's requests.
func TestRepeatsDrawIndependently(t *testing.T) {
	in := New(&Plan{Seed: 3, ErrorRate: 0.5})
	h := in.Middleware(okHandler("ok"))
	codes := map[int]int{}
	for i := 0; i < 64; i++ {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", "/v1/predict", strings.NewReader(`{"pes":4}`)))
		codes[rec.Code]++
	}
	if codes[http.StatusOK] == 0 || codes[http.StatusInternalServerError] == 0 {
		t.Fatalf("64 repeats of one request all drew the same outcome: %v", codes)
	}
}

func TestRoundTripperInjectsTransportErrors(t *testing.T) {
	backend := httptest.NewServer(okHandler("ok"))
	defer backend.Close()
	in := New(&Plan{Seed: 7, ErrorRate: 1})
	client := &http.Client{Transport: in.RoundTripper(nil)}
	if _, err := client.Get(backend.URL + "/v1/predict"); err == nil {
		t.Fatal("injected transport error did not surface")
	}
	if in.Totals()[KindError] != 1 {
		t.Fatalf("totals %v", in.Totals())
	}
}

func TestRoundTripperTruncates(t *testing.T) {
	body := `{"schema":"krak/result/v1","total":1.5}` + "\n"
	backend := httptest.NewServer(okHandler(body))
	defer backend.Close()
	in := New(&Plan{Seed: 7, TruncateRate: 1})
	client := &http.Client{Transport: in.RoundTripper(nil)}
	resp, err := client.Get(backend.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != body[:len(body)/2] {
		t.Fatalf("truncated body %q", got)
	}
}

func TestLatencyInjection(t *testing.T) {
	in := New(&Plan{Seed: 7, LatencyRate: 1, LatencyMin: 5 * time.Millisecond, LatencyMax: 5 * time.Millisecond})
	h := in.Middleware(okHandler("ok"))
	start := time.Now()
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/predict", nil))
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("latency injection slept %v, want >= 5ms", d)
	}
	if in.Totals()[KindLatency] != 1 {
		t.Fatalf("totals %v", in.Totals())
	}
}

func TestInjectorPlanDefaults(t *testing.T) {
	in := New(&Plan{Name: "drill"})
	p := in.plan
	if p.Name != "drill" || p.Seed != 1 || p.ErrorStatus != http.StatusInternalServerError {
		t.Fatalf("armed plan = %+v, want seed/status defaulted", p)
	}
}

// TestMiddlewarePreservesStatus checks the buffering writer relays the
// handler's explicit status code untouched when no fault fires.
func TestMiddlewarePreservesStatus(t *testing.T) {
	in := New(&Plan{Seed: 7}) // armed, but every rate is zero
	h := in.Middleware(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Check", "kept")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"job":"j1"}`)
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/predict", strings.NewReader(`{}`)))
	if rec.Code != http.StatusAccepted || rec.Header().Get("X-Check") != "kept" {
		t.Fatalf("status %d headers %v, want relayed 202", rec.Code, rec.Header())
	}
	if rec.Body.String() != `{"job":"j1"}` {
		t.Fatalf("body %q mangled with no fault armed", rec.Body.String())
	}
}

func TestRoundTripperCorrupts(t *testing.T) {
	body := `{"schema":"krak/result/v1","total":1.5}` + "\n"
	backend := httptest.NewServer(okHandler(body))
	defer backend.Close()
	in := New(&Plan{Seed: 7, CorruptRate: 1})
	client := &http.Client{Transport: in.RoundTripper(nil)}
	resp, err := client.Get(backend.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == body || len(got) != len(body) {
		t.Fatalf("corrupt fault left the body intact: %q", got)
	}
	if in.Totals()[KindCorrupt] != 1 {
		t.Fatalf("totals %v", in.Totals())
	}
}
