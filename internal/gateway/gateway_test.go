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
	"unicode/utf8"

	"krak/internal/faultinject"
	"krak/internal/server"
	"krak/pkg/krak"
)

// stubBody is what a stub replica answers on a 2xx: JSON with digits,
// so a digit flip has something to change.
const stubBody = `{"ok":true,"total_s":0.25}`

// Damage modes of a stub replica's 2xx answers; 0 answers stubBody
// with its digest.
const (
	garbage     int32 = iota + 1 // invalid UTF-8 under stubBody's digest
	digitFlip                    // valid JSON, a digit changed, under stubBody's digest
	noDigest                     // stubBody with no Content-Digest
	wrongDigest                  // stubBody under another body's digest
)

// writeStubBody answers body with the Content-Digest of digestOf, made
// by the server's own helper ("" sends none).
func writeStubBody(w http.ResponseWriter, body, digestOf string) {
	w.Header().Set("Content-Type", "application/json")
	if digestOf != "" {
		w.Header().Set("Content-Digest", server.ContentDigest([]byte(digestOf)))
	}
	io.WriteString(w, body)
}

// stubReplica is a fake backend with a scriptable handler and request
// counting.
type stubReplica struct {
	ts       *httptest.Server
	requests atomic.Int64
	fail     atomic.Bool  // when set, answer 500
	damage   atomic.Int32 // how a 200 is damaged; 0 sends it intact
	hit      atomic.Bool  // when set, a 200 says it came from the replica's LRU
}

func newStubReplica() *stubReplica {
	s := &stubReplica{}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		s.requests.Add(1)
		if s.fail.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		if s.hit.Load() {
			w.Header().Set("Cache-Status", server.CacheStatusHit)
		}
		switch s.damage.Load() {
		case garbage:
			writeStubBody(w, "{\"ok\":\xff\xfe}", stubBody)
		case digitFlip:
			writeStubBody(w, strings.Replace(stubBody, "2", "3", 1), stubBody)
		case noDigest:
			writeStubBody(w, stubBody, "")
		case wrongDigest:
			writeStubBody(w, stubBody, stubBody+" ")
		default:
			writeStubBody(w, stubBody, stubBody)
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

// One backend spelled with and without a trailing slash is one replica:
// New refuses the pair rather than giving the backend two ring shares
// and two breakers, and gateways that spell their replicas differently
// route every key to the same backend.
func TestGatewayOneReplicaPerBackend(t *testing.T) {
	_, err := New(testConfig("http://127.0.0.1:8081", "http://127.0.0.1:8081/"), nil)
	if err == nil || !strings.Contains(err.Error(), `duplicate replica "http://127.0.0.1:8081/"`) {
		t.Fatalf("New with one backend spelled twice: %v", err)
	}
	urls := testReplicas(4)
	slashed := make([]string, len(urls))
	for i, u := range urls {
		slashed[i] = u + "/"
	}
	a, err := New(testConfig(urls...), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig(slashed...), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("predict|small|%d|general-homo|fp", i)
		if ua, ub := a.replicas[a.ring.owner(key)].url, b.replicas[b.ring.owner(key)].url; ua != ub {
			t.Fatalf("key %q routes to %s or %s depending on the spelling", key, ua, ub)
		}
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

// TestGatewayRejectsCorruptBodies: a replica whose 2xx bodies do not
// match their Content-Digest, or carry none, is failed over for every
// key it owns, and the client receives the intact body with its digest
// relayed. The digit flip is the case JSON validation used to let
// through: the body it relays is valid JSON.
func TestGatewayRejectsCorruptBodies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage int32
	}{
		{"invalid UTF-8", garbage},
		{"digit flip", digitFlip},
		{"no digest", noDigest},
		{"wrong digest", wrongDigest},
	} {
		var stubs []*stubReplica
		var urls []string
		for i := 0; i < 2; i++ {
			s := newStubReplica()
			defer s.ts.Close()
			stubs = append(stubs, s)
			urls = append(urls, s.ts.URL)
		}
		stubs[0].damage.Store(tc.damage)
		g, err := New(testConfig(urls...), nil)
		if err != nil {
			t.Fatal(err)
		}
		for pe := 1; pe <= 16; pe++ {
			rec := post(t, g, "/v1/predict", predictBody(pe))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s, pe %d: status %d", tc.name, pe, rec.Code)
			}
			if rec.Body.String() != stubBody {
				t.Fatalf("%s, pe %d: gateway relayed %q, want %q", tc.name, pe, rec.Body.String(), stubBody)
			}
			if got, want := rec.Header().Get("Content-Digest"), server.ContentDigest([]byte(stubBody)); got != want {
				t.Fatalf("%s, pe %d: relayed Content-Digest %q, want %q", tc.name, pe, got, want)
			}
		}
		if stubs[0].requests.Load() == 0 || g.retries.Load() == 0 {
			t.Fatalf("%s: the damaged replica saw %d requests and the gateway retried %d times; it was never exercised",
				tc.name, stubs[0].requests.Load(), g.retries.Load())
		}
	}
}

// TestAcceptableRefusesDigitFlip is the case the digest exists for: a
// real predict body with a digit changed in flight by the fault
// injector's corrupt kind is still valid UTF-8 JSON, which the JSON
// validation acceptable used to run passed, but its digest no longer
// matches. The same body intact is accepted.
func TestAcceptableRefusesDigitFlip(t *testing.T) {
	answer := func(faults *faultinject.Injector) (*http.Response, []byte) {
		h, err := server.New(server.Config{Quick: true, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		rec := post(t, h, "/v1/predict", predictBody(16))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Result(), rec.Body.Bytes()
	}
	resp, body := answer(nil)
	if !acceptable(resp, body) {
		t.Fatal("an intact predict body was refused")
	}
	flippedResp, flipped := answer(faultinject.New(&faultinject.Plan{Seed: 7, CorruptRate: 1}))
	if len(flipped) != len(body) || bytes.Equal(flipped, body) {
		t.Fatalf("the corrupt fault did not change the body in place: %d bytes vs %d", len(flipped), len(body))
	}
	if !utf8.Valid(flipped) || !json.Valid(flipped) {
		t.Fatalf("the digit-flipped body is not valid JSON, so JSON validation would catch it too:\n%s", flipped)
	}
	if acceptable(flippedResp, flipped) {
		t.Fatalf("acceptable relayed a digit-flipped body:\n%s", flipped)
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
	big := `{"pad":"` + strings.Repeat("x", 2<<20) + `"}`
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeStubBody(w, big, big)
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
	if rec.Body.String() != big {
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

// TestGatewayFailoverServesSharedHistory pins failover for the machine
// registry: three replicas share one cache directory, a machine is
// registered and appended to through the gateway, and the replica that
// owns machines|<fingerprint> is closed. A read through the gateway
// must fail over to a sibling that serves the same bytes; with a
// registry per replica the sibling answered 404 "unknown machine
// fingerprint".
func TestGatewayFailoverServesSharedHistory(t *testing.T) {
	dir := t.TempDir()
	var (
		urls     []string
		replicas []*httptest.Server
	)
	for i := 0; i < 3; i++ {
		h, err := server.New(server.Config{Quick: true, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		replicas = append(replicas, ts)
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
	rec = post(t, g, "/v1/machines/"+fp, regBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	// Every replica serves what the gateway does, read directly: version
	// 1 now, and after the appends below the newest version.
	direct := func(want string) {
		t.Helper()
		for i, u := range urls {
			resp, err := http.Get(u + "/v1/machines/" + fp)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || string(body) != want {
				t.Fatalf("replica %d read directly: %d; same bytes as the gateway = %v", i, resp.StatusCode, string(body) == want)
			}
		}
	}
	direct(rec.Body.String())
	for i := 0; i < 2; i++ {
		body, _ := json.Marshal(krak.AppendRequest{Fingerprint: fp, Dataset: fmt.Sprintf("obs small %d 0.03\n", 3+i)})
		if rec := post(t, g, "/v1/calibrate/append", body); rec.Code != http.StatusOK {
			t.Fatalf("append %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	history := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/machines/"+fp, nil))
		return rec
	}
	before := history()
	if before.Code != http.StatusOK {
		t.Fatalf("history: %d %s", before.Code, before.Body)
	}
	direct(before.Body.String())

	replicas[g.ring.owner("machines|"+fp)].Close()
	after := history()
	if after.Code != http.StatusOK || after.Body.String() != before.Body.String() {
		t.Fatalf("history after its owner closed: %d %s; byte-identical = %v",
			after.Code, after.Body, after.Body.String() == before.Body.String())
	}
}
