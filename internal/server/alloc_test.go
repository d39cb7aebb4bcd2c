//go:build !race

// The race detector instruments allocation, so the allocation pins in
// this file build only without it.

package server

import (
	"fmt"
	"net/http"
	"testing"
)

// TestPredictAllocs pins the allocations of one /v1/predict request
// through the handler, request and recorder included, in the two
// serving regimes BenchmarkServePredict times: a hit served from the
// rendered-response LRU, and a miss against warm artifact caches that
// evaluates the model and renders (64 keys cycled through 16 slots miss
// forever). Each budget is the count measured when it was set plus a
// margin of 5; a change that allocates more raises the budget in its
// diff and says why.
func TestPredictAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("warms 64 predict keys")
	}
	s := quickServer(func(c *Config) { c.CacheSize = 16 })
	body := func(pe int) string { return fmt.Sprintf(`{"deck":"small","pes":%d,"model":"mesh-specific"}`, pe) }
	for pe := 2; pe < 2+64; pe++ {
		if w := post(t, s, "/v1/predict", body(pe)); w.Code != http.StatusOK {
			t.Fatalf("warm-up pe %d: status %d: %s", pe, w.Code, w.Body.String())
		}
	}
	for _, tc := range []struct {
		name   string
		budget float64
		next   func(run int) string
	}{
		{"hit", 50 + 5, func(int) string { return body(65) }},
		{"miss", 77 + 5, func(run int) string { return body(2 + run%64) }},
	} {
		run := 0
		allocs := testing.AllocsPerRun(64, func() {
			if w := post(t, s, "/v1/predict", tc.next(run)); w.Code != http.StatusOK {
				t.Fatalf("%s: status %d", tc.name, w.Code)
			}
			run++
		})
		t.Logf("predict %s: %.0f allocs per request", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("predict %s allocated %.0f objects per request, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}
