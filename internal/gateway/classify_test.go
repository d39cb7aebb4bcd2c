package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"krak/internal/server"
	"krak/pkg/krak"
)

// TestClassify pins the routing table: which ring key each endpoint
// hashes on and which methods are safe to retry across replicas.
func TestClassify(t *testing.T) {
	g, err := New(testConfig("http://127.0.0.1:1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	classify := func(method, path string, body []byte) reqClass {
		r := httptest.NewRequest(method, path, nil)
		return g.classify(r, body)
	}

	pb := predictBody(8)
	var preq krak.PredictRequest
	if err := json.Unmarshal(pb, &preq); err != nil {
		t.Fatal(err)
	}
	spec, err := server.ResolveSpec(preq.Machine, g.cfg.Quick)
	if err != nil {
		t.Fatal(err)
	}
	preq.Machine = spec

	sb, _ := json.Marshal(krak.SimulateRequest{Deck: "small", PEs: 4, Iterations: 1})

	cases := []struct {
		name, method, path string
		body               []byte
		wantKey            string // exact, or "|"-suffixed digest prefix
		idempotent         bool
	}{
		{"machine read", http.MethodGet, "/v1/machines/f00dcafe", nil, "machines|f00dcafe", true},
		{"plain GET", http.MethodGet, "/v1/experiments", nil, "GET /v1/experiments", true},
		{"predict", http.MethodPost, "/v1/predict", pb, preq.CanonicalKey(), true},
		{"predict bad json", http.MethodPost, "/v1/predict", []byte("{"), "/v1/predict|", true},
		{"simulate", http.MethodPost, "/v1/simulate", sb, "", true},
		{"simulate bad json", http.MethodPost, "/v1/simulate", []byte("]"), "/v1/simulate|", true},
		{"sweep", http.MethodPost, "/v1/sweep", []byte(`{}`), "/v1/sweep|", true},
		{"compare", http.MethodPost, "/v1/compare", []byte(`{}`), "/v1/compare|", true},
		{"calibrate", http.MethodPost, "/v1/calibrate", []byte(`{}`), "/v1/calibrate|", true},
		{"append", http.MethodPost, "/v1/calibrate/append", []byte(`{"fingerprint":"f00dcafe"}`), "machines|f00dcafe", false},
		{"append no fingerprint", http.MethodPost, "/v1/calibrate/append", []byte(`{}`), "/v1/calibrate/append|", false},
		{"append bad json", http.MethodPost, "/v1/calibrate/append", []byte("{"), "/v1/calibrate/append|", false},
		{"machine register", http.MethodPut, "/v1/machines/beef", nil, "machines|beef", false},
		{"unknown POST", http.MethodPost, "/v1/else", nil, "/v1/else|", false},
	}
	for _, tc := range cases {
		c := classify(tc.method, tc.path, tc.body)
		if c.idempotent != tc.idempotent {
			t.Errorf("%s: idempotent = %v, want %v", tc.name, c.idempotent, tc.idempotent)
		}
		switch {
		case tc.wantKey == "":
		case strings.HasSuffix(tc.wantKey, "|"):
			if !strings.HasPrefix(c.key, tc.wantKey) || len(c.key) == len(tc.wantKey) {
				t.Errorf("%s: key = %q, want digest under %q", tc.name, c.key, tc.wantKey)
			}
		default:
			if c.key != tc.wantKey {
				t.Errorf("%s: key = %q, want %q", tc.name, c.key, tc.wantKey)
			}
		}
	}

	// Identical content always lands on the same ring key, so replica
	// caches stay warm no matter which client sent the request.
	a := classify(http.MethodPost, "/v1/predict", pb)
	b := classify(http.MethodPost, "/v1/predict", pb)
	if a.key != b.key {
		t.Fatalf("same content classified to different keys: %q vs %q", a.key, b.key)
	}
}

func TestEndpointLabel(t *testing.T) {
	cases := map[string]string{
		"/v1/machines/f00":      "/v1/machines/{fingerprint}",
		"/v1/experiments/fig_4": "/v1/experiments/{id}",
		"/v1/predict":           "/v1/predict",
		"/healthz":              "/healthz",
	}
	for path, want := range cases {
		if got := endpointLabel(path); got != want {
			t.Errorf("endpointLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestHeadRoutesAsItsGet: a HEAD is its GET without the body, so over a
// 3-replica ring it hashes to the GET's key and owner, and it is retried
// and failed over like the GET.
func TestHeadRoutesAsItsGet(t *testing.T) {
	replicas := testReplicas(3)
	g, err := New(testConfig(replicas...), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/machines", "/v1/machines/f00dcafe", "/v1/experiments", "/v1/experiments/table1"} {
		get := g.classify(httptest.NewRequest(http.MethodGet, path, nil), nil)
		head := g.classify(httptest.NewRequest(http.MethodHead, path, nil), nil)
		if head.key != get.key {
			t.Errorf("%s: HEAD key %q, GET key %q", path, head.key, get.key)
		}
		if ho, gwn := g.ring.owner(head.key), g.ring.owner(get.key); ho != gwn {
			t.Errorf("%s: HEAD owned by %s, GET by %s", path, replicas[ho], replicas[gwn])
		}
		if !get.idempotent || !head.idempotent {
			t.Errorf("%s: idempotent GET %v, HEAD %v; want both", path, get.idempotent, head.idempotent)
		}
	}
}
