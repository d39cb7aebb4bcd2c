package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"krak/pkg/krak"
)

// stubReplica is a fake backend with a scriptable handler and request
// counting.
type stubReplica struct {
	ts       *httptest.Server
	requests atomic.Int64
	fail     atomic.Bool // when set, answer 500
	garbage  atomic.Bool // when set, answer 200 with invalid UTF-8
}

func newStubReplica() *stubReplica {
	s := &stubReplica{}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		s.requests.Add(1)
		switch {
		case s.fail.Load():
			http.Error(w, "boom", http.StatusInternalServerError)
		case s.garbage.Load():
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte("{\"ok\":\xff\xfe}"))
		default:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"ok":true}`)
		}
	}))
	return s
}

// testConfig returns a fast-timing config over the stub URLs.
func testConfig(urls ...string) Config {
	cfg := DefaultConfig()
	cfg.Replicas = urls
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.ProbeTimeout = 200 * time.Millisecond
	cfg.RetryBase = time.Millisecond
	cfg.RetryCap = 2 * time.Millisecond
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = 100 * time.Millisecond
	return cfg
}

func predictBody(pe int) []byte {
	b, _ := json.Marshal(krak.PredictRequest{Deck: "small", PEs: pe})
	return b
}

func post(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

func TestGatewayRoutesConsistently(t *testing.T) {
	var stubs []*stubReplica
	var urls []string
	for i := 0; i < 3; i++ {
		s := newStubReplica()
		defer s.ts.Close()
		stubs = append(stubs, s)
		urls = append(urls, s.ts.URL)
	}
	g, err := New(testConfig(urls...), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := predictBody(16)
	for i := 0; i < 10; i++ {
		if rec := post(t, g, "/v1/predict", body); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	// Consistent hashing: one replica saw all ten, the others none.
	served := 0
	for _, s := range stubs {
		if n := s.requests.Load(); n > 0 {
			served++
			if n != 10 {
				t.Fatalf("owning replica served %d/10", n)
			}
		}
	}
	if served != 1 {
		t.Fatalf("one key spread over %d replicas", served)
	}
}

func TestGatewayFailsOverAndRetries(t *testing.T) {
	var stubs []*stubReplica
	var urls []string
	for i := 0; i < 3; i++ {
		s := newStubReplica()
		defer s.ts.Close()
		stubs = append(stubs, s)
		urls = append(urls, s.ts.URL)
	}
	stubs[0].fail.Store(true)
	g, err := New(testConfig(urls...), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Enough distinct keys that replica 0 owns some of them.
	for pe := 1; pe <= 32; pe++ {
		if rec := post(t, g, "/v1/predict", predictBody(pe)); rec.Code != http.StatusOK {
			t.Fatalf("pe %d: status %d body %s", pe, rec.Code, rec.Body.String())
		}
	}
	if g.retries.Load() == 0 {
		t.Fatal("no retries recorded though one replica always fails")
	}
	if g.metrics.Total("krak_gateway_retries_total") == 0 {
		t.Fatal("retry metric not exported")
	}
}

func TestGatewayRejectsCorruptBodies(t *testing.T) {
	var stubs []*stubReplica
	var urls []string
	for i := 0; i < 2; i++ {
		s := newStubReplica()
		defer s.ts.Close()
		stubs = append(stubs, s)
		urls = append(urls, s.ts.URL)
	}
	stubs[0].garbage.Store(true)
	g, err := New(testConfig(urls...), nil)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 1; pe <= 16; pe++ {
		rec := post(t, g, "/v1/predict", predictBody(pe))
		if rec.Code != http.StatusOK {
			t.Fatalf("pe %d: status %d", pe, rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("pe %d: gateway relayed a corrupt body %q", pe, rec.Body.String())
		}
	}
}

func TestGatewayBreakerOpensOnConsecutiveFailures(t *testing.T) {
	s := newStubReplica()
	defer s.ts.Close()
	s.fail.Store(true)
	cfg := testConfig(s.ts.URL)
	cfg.Retries = 0
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.BreakerThreshold; i++ {
		post(t, g, "/v1/predict", predictBody(4))
	}
	if got := g.replicas[0].breaker.value(); got != breakerOpen {
		t.Fatalf("breaker state %d after %d consecutive failures, want open", got, cfg.BreakerThreshold)
	}
	// With the breaker open the replica is not even attempted.
	before := s.requests.Load()
	rec := post(t, g, "/v1/predict", predictBody(4))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with every breaker open, want 503", rec.Code)
	}
	if s.requests.Load() != before {
		t.Fatal("open breaker did not stop traffic to the replica")
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestGatewayUnavailable: with every replica dead, both canonically-keyed
// endpoints answer an honest 503 with Retry-After and the
// krak.ErrUnavailable envelope.
func TestGatewayUnavailable(t *testing.T) {
	simulate, _ := json.Marshal(krak.SimulateRequest{Deck: "small", PEs: 2, Iterations: 1})
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/v1/predict", predictBody(4)},
		{"/v1/simulate", simulate},
	} {
		dead := newStubReplica()
		dead.ts.Close()
		g, err := New(testConfig(dead.ts.URL), nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := post(t, g, tc.path, tc.body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", tc.path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: 503 without Retry-After", tc.path)
		}
		var envelope map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
			t.Fatalf("%s: error envelope: %v", tc.path, err)
		}
		if !strings.Contains(envelope["error"], "service unavailable") {
			t.Fatalf("%s: error %q does not carry ErrUnavailable", tc.path, envelope["error"])
		}
		if g.unavailable.Load() != 1 {
			t.Fatalf("%s: unavailable counter %d, want 1", tc.path, g.unavailable.Load())
		}
	}
}

func TestGatewayNonIdempotentSingleAttempt(t *testing.T) {
	var stubs []*stubReplica
	var urls []string
	for i := 0; i < 3; i++ {
		s := newStubReplica()
		defer s.ts.Close()
		s.fail.Store(true)
		stubs = append(stubs, s)
		urls = append(urls, s.ts.URL)
	}
	g, err := New(testConfig(urls...), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"fingerprint":"f00d","dataset":"obs small 2 0.05\n"}`)
	rec := post(t, g, "/v1/calibrate/append", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	var attempts int64
	for _, s := range stubs {
		attempts += s.requests.Load()
	}
	if attempts != 1 {
		t.Fatalf("non-idempotent append attempted %d times, want exactly 1", attempts)
	}
}

// TestGatewayClientCancelChargesNoReplica is the regression test for a
// client that hangs up: its dead context fails every forward, and none
// of that may open a breaker or count as a retry, failover, or 503.
// Three 5 ms client timeouts against slow replicas used to open all
// three breakers (threshold 3), refusing every client until cooldown.
func TestGatewayClientCancelChargesNoReplica(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				fmt.Fprint(w, `{"status":"ok"}`)
				return
			}
			// Drain the body so the server watches the connection and
			// cancels r.Context() when the gateway hangs up.
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
		}))
		defer slow.Close()
		urls = append(urls, slow.URL)
	}
	g, err := New(testConfig(urls...), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(predictBody(4+i))).WithContext(ctx)
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		cancel()
		if rec.Code != statusClientClosed {
			t.Fatalf("request %d: status %d, want %d", i, rec.Code, statusClientClosed)
		}
	}
	for _, rep := range g.replicas {
		if st := rep.breaker.value(); st != breakerClosed {
			t.Errorf("%s: breaker state %d after client cancels, want closed", rep.url, st)
		}
	}
	if r, u := g.retries.Load(), g.unavailable.Load(); r+u != 0 {
		t.Fatalf("client cancels counted %d retries, %d unavailable; want 0", r, u)
	}
}

func TestGatewayHealthProbesMarkDeadReplicas(t *testing.T) {
	alive := newStubReplica()
	defer alive.ts.Close()
	dead := newStubReplica()
	dead.ts.Close()
	g, err := New(testConfig(alive.ts.URL, dead.ts.URL), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.Start(ctx)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if !g.replicas[1].healthy.Load() && g.replicas[0].healthy.Load() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if g.replicas[1].healthy.Load() {
		t.Fatal("probe never marked the dead replica unhealthy")
	}
	if !g.replicas[0].healthy.Load() {
		t.Fatal("probe marked the live replica unhealthy")
	}
}

func TestGatewayObservability(t *testing.T) {
	s := newStubReplica()
	defer s.ts.Close()
	g, err := New(testConfig(s.ts.URL), nil)
	if err != nil {
		t.Fatal(err)
	}
	post(t, g, "/v1/predict", predictBody(4))

	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	for _, family := range []string{
		"krak_gateway_requests_total",
		"krak_gateway_retries_total",
		"krak_gateway_breaker_state",
		"krak_gateway_unavailable_total",
		"krak_gateway_replica_healthy",
		"krak_http_requests_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d", rec.Code)
	}
	var view map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view["replicas"] != float64(1) {
		t.Fatalf("healthz replicas %v", view["replicas"])
	}
}

// TestGatewayRelaysLargeResponses pins that responses are bounded
// separately from requests: a legal 256-point sweep is already over the
// 1 MiB request bound, and must reach the client byte-identically
// without charging the replica's breaker.
func TestGatewayRelaysLargeResponses(t *testing.T) {
	big := []byte(`{"pad":"` + strings.Repeat("x", 2<<20) + `"}`)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(big)
	}))
	defer stub.Close()
	g, err := New(testConfig(stub.URL), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, g, "/v1/sweep", []byte(`{}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), big) {
		t.Fatalf("relayed %d bytes, want the replica's %d byte-identically", rec.Body.Len(), len(big))
	}
	if state := g.replicas[0].breaker.value(); state != 0 {
		t.Fatalf("breaker state %d after a good response, want 0 (closed)", state)
	}
	if n := g.metrics.Total("krak_gateway_unavailable_total"); n != 0 {
		t.Fatalf("krak_gateway_unavailable_total = %v, want 0", n)
	}
}

// TestGatewayUnknownPathsShareOneLabel pins that arbitrary paths cannot
// grow the metrics: every path outside the endpoint table is still
// proxied, once, but counted under one shared label.
func TestGatewayUnknownPathsShareOneLabel(t *testing.T) {
	s := newStubReplica()
	defer s.ts.Close()
	g, err := New(testConfig(s.ts.URL), nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if rec := post(t, g, fmt.Sprintf("/nope/%d", i), nil); rec.Code != http.StatusOK {
			t.Fatalf("unknown path %d: status %d, want the replica's 200", i, rec.Code)
		}
	}
	if got := s.requests.Load(); got != n {
		t.Fatalf("replica saw %d requests, want %d (one attempt each)", got, n)
	}
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var series int
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "krak_http_requests_total{") {
			series++
		}
	}
	if series != 1 {
		t.Fatalf("%d krak_http_requests_total series after %d unknown paths, want 1", series, n)
	}
	want := fmt.Sprintf(`krak_http_requests_total{endpoint=%q,code="200"} %d`, unmatchedLabel, n)
	if !strings.Contains(rec.Body.String(), want+"\n") {
		t.Fatalf("scrape lacks %s:\n%s", want, rec.Body.String())
	}
}

// TestGatewayAppendsReachHistoryOwner is the regression test for append
// routing: a machine's history lives on the replica that owns
// machines|<fingerprint>, so every append must land there. Keyed by a
// body digest, two of three appends used to reach a replica that
// answered 404 "unknown machine fingerprint".
func TestGatewayAppendsReachHistoryOwner(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		ts, _ := chaosReplica(t, nil)
		urls = append(urls, ts.URL)
	}
	cfg := testConfig(urls...)
	cfg.Quick = true
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	const dataset = "obs small 2 0.052\nobs small 4 0.031\nobs small 8 0.021\nobs small 16 0.015\n"
	calBody, _ := json.Marshal(krak.CalibrateRequest{Dataset: dataset})
	rec := post(t, g, "/v1/calibrate", calBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("calibrate: %d %s", rec.Code, rec.Body)
	}
	var cr krak.CalibrationResult
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	fp := cr.FittedFingerprint
	regBody, _ := json.Marshal(krak.RegisterMachineRequest{Result: &cr, Dataset: dataset})
	if rec := post(t, g, "/v1/machines/"+fp, regBody); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}

	const appends = 10
	for i := 0; i < appends; i++ {
		fresh := fmt.Sprintf("obs small %d %g\n", 3+i, 0.04/float64(1+i))
		body, _ := json.Marshal(krak.AppendRequest{Fingerprint: fp, Dataset: fresh})
		if rec := post(t, g, "/v1/calibrate/append", body); rec.Code != http.StatusOK {
			t.Errorf("append %d: %d %s", i, rec.Code, rec.Body)
		}
	}

	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/machines/"+fp, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("history: %d %s", rec.Code, rec.Body)
	}
	var hist krak.MachineHistory
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Versions) != 1+appends {
		t.Fatalf("history holds %d versions, want %d", len(hist.Versions), 1+appends)
	}
}
