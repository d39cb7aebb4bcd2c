package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"krak/pkg/krak"
)

// metricValue extracts one sample's value from a Prometheus text scrape.
// series is the full sample name including any label set, e.g.
// `krak_http_requests_total{endpoint="/v1/predict",code="200"}`.
func metricValue(t *testing.T, scrape, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in scrape:\n%s", series, scrape)
	return 0
}

// TestMetricsEndpoint drives a request sequence and checks the scrape
// reports it: per-endpoint request counters with status codes, latency
// histogram series, and the cache outcome counters.
func TestMetricsEndpoint(t *testing.T) {
	s := quickServer()
	for i := 0; i < 2; i++ { // miss then hit
		if w := post(t, s, "/v1/predict", `{"deck":"small","pes":4}`); w.Code != http.StatusOK {
			t.Fatalf("predict %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	if w := post(t, s, "/v1/predict", `{"deck":"tiny"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad deck: %d", w.Code)
	}

	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("scrape status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	scrape := w.Body.String()
	if got := metricValue(t, scrape, `krak_http_requests_total{endpoint="/v1/predict",code="200"}`); got != 2 {
		t.Errorf("predict 200s = %g, want 2", got)
	}
	if got := metricValue(t, scrape, `krak_http_requests_total{endpoint="/v1/predict",code="400"}`); got != 1 {
		t.Errorf("predict 400s = %g, want 1", got)
	}
	if got := metricValue(t, scrape, "krak_response_cache_hits_total"); got != 1 {
		t.Errorf("cache hits = %g, want 1", got)
	}
	if got := metricValue(t, scrape, "krak_response_cache_misses_total"); got != 1 {
		t.Errorf("cache misses = %g, want 1", got)
	}
	if got := metricValue(t, scrape, `krak_http_request_seconds_count{endpoint="/v1/predict"}`); got != 3 {
		t.Errorf("latency count = %g, want 3", got)
	}
	if got := metricValue(t, scrape, `krak_http_request_seconds_bucket{endpoint="/v1/predict",le="+Inf"}`); got != 3 {
		t.Errorf("latency +Inf bucket = %g, want 3", got)
	}
	// The HELP/TYPE headers must be present for every family the scrape
	// mentions (spot-check the histogram, the trickiest type).
	if !strings.Contains(scrape, "# TYPE krak_http_request_seconds histogram") {
		t.Error("histogram TYPE header missing")
	}
}

// TestHealthzAgreesWithMetrics is the two-views-one-registry test: every
// counter /healthz reports must equal what /metrics exposes for the
// corresponding family at the same moment.
func TestHealthzAgreesWithMetrics(t *testing.T) {
	s := quickServer()
	post(t, s, "/v1/predict", `{"deck":"small","pes":4}`)
	post(t, s, "/v1/predict", `{"deck":"small","pes":4}`)
	post(t, s, "/v1/simulate", `{"deck":"small","pes":4,"iterations":1}`)

	var h map[string]any
	if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	scrape := get(t, s, "/metrics").Body.String()
	pairs := map[string]string{
		"cache_hits":         "krak_response_cache_hits_total",
		"cache_misses":       "krak_response_cache_misses_total",
		"cache_coalesced":    "krak_response_cache_coalesced_total",
		"cache_len":          "krak_response_cache_entries",
		"cache_cap":          "krak_response_cache_capacity",
		"machines":           "krak_machines",
		"parallelism":        "krak_parallelism",
		"partition_computes": "krak_partition_computes_total",
	}
	for field, family := range pairs {
		want, ok := h[field].(float64)
		if !ok {
			t.Errorf("healthz missing %q", field)
			continue
		}
		if got := metricValue(t, scrape, family); got != want {
			t.Errorf("healthz %s = %g but metrics %s = %g", field, want, family, got)
		}
	}
}

// TestCacheOutcomeCountsPinned is the regression test for the cache-hit
// miscount bug: requests coalesced onto an in-flight fill used to count
// as cache hits, inflating the hit rate under bursts. The three outcomes
// must be reported distinctly: the burst below is 1 miss plus n-1
// coalesced (zero hits — nothing was in the finished cache), and only
// the repeat afterwards is a hit.
func TestCacheOutcomeCountsPinned(t *testing.T) {
	s := quickServer()
	const n = 6
	burstOnHeldFill(t, s, "burst", n)
	if m, c, h := s.cacheMisses.Load(), s.cacheCoalesced.Load(), s.cacheHits.Load(); m != 1 || c != n-1 || h != 0 {
		t.Fatalf("burst counts: misses=%d coalesced=%d hits=%d, want 1/%d/0", m, c, h, n-1)
	}
	s.cachedBody(httptest.NewRecorder(), "burst", func() ([]byte, error) {
		t.Error("repeat ran the fill")
		return nil, nil
	})
	if m, c, h := s.cacheMisses.Load(), s.cacheCoalesced.Load(), s.cacheHits.Load(); m != 1 || c != n-1 || h != 1 {
		t.Fatalf("after repeat: misses=%d coalesced=%d hits=%d, want 1/%d/1", m, c, h, n-1)
	}
}

// TestAdmissionSaturated429 saturates the heavy class deterministically
// (the test holds its one slot directly; no queue) and checks the next
// sweep is refused with 429 and a Retry-After, then served once the slot
// frees.
func TestAdmissionSaturated429(t *testing.T) {
	s := quickServer(func(c *Config) {
		c.HeavyLimit = 1
		c.HeavyQueue = -1
	})
	if err := s.admission.heavy.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := post(t, s, "/v1/sweep", `{"decks":["small"],"pes":[4]}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated sweep: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var env map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env["error"] == "" {
		t.Errorf("missing error envelope: %s", w.Body.String())
	}
	if got := s.admission.rejectedHeavy.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	// Light traffic is not collateral damage: cached reads still serve.
	if w := post(t, s, "/v1/predict", `{"deck":"small","pes":4}`); w.Code != http.StatusOK {
		t.Fatalf("light request during heavy saturation: %d", w.Code)
	}
	s.admission.heavy.Release()
	if w := post(t, s, "/v1/sweep", `{"decks":["small"],"pes":[4]}`); w.Code != http.StatusOK {
		t.Fatalf("sweep after release: status %d: %s", w.Code, w.Body.String())
	}
}

// TestMachineCapConcurrent is the regression test for the machine-cap
// TOCTOU: 128 distinct specs racing through machineFor used to each see
// Len() below the cap before any inserted, overshooting it. The atomic
// GetBounded admits exactly maxMachines and refuses the rest.
func TestMachineCapConcurrent(t *testing.T) {
	s := quickServer()
	const n = 2 * maxMachines
	var wg sync.WaitGroup
	var admitted, refused, unexpected sync.Map
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ms := krak.MachineSpec{Seed: uint64(i + 1), Quick: true}.Normalized()
			switch _, err := s.machineFor(ms); {
			case err == nil:
				admitted.Store(i, true)
			case errors.Is(err, errTooManyMachines):
				refused.Store(i, true)
			default:
				unexpected.Store(i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	unexpected.Range(func(k, v any) bool {
		t.Errorf("spec %v: unexpected error %v", k, v)
		return true
	})
	count := func(m *sync.Map) (n int) {
		m.Range(func(any, any) bool { n++; return true })
		return n
	}
	if got := s.machines.Len(); got > maxMachines {
		t.Fatalf("machine cache overshot the cap: %d > %d", got, maxMachines)
	}
	if a, r := count(&admitted), count(&refused); a != maxMachines || r != n-maxMachines {
		t.Errorf("admitted=%d refused=%d, want %d/%d", a, r, maxMachines, n-maxMachines)
	}
}
