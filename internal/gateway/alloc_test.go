//go:build !race

// The race detector instruments allocation, so the allocation pins in
// this file build only without it.

package gateway

import (
	"net/http"
	"testing"
)

// TestProxyAllocs pins the allocations of one proxied /v1/predict
// request against a stub replica: the gateway's handler, its forward
// over a kept-alive loopback connection, the digest check and the
// relay, with the request, the recorder and the stub's own handler
// included. The budget is the count measured when it was set plus a
// margin of 10, wider than the server's because the HTTP client's
// connection bookkeeping varies run to run; a change that allocates
// more raises the budget in its diff and says why.
func TestProxyAllocs(t *testing.T) {
	s := newStubReplica()
	defer s.ts.Close()
	g, err := New(testConfig(s.ts.URL), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := predictBody(16)
	allocs := testing.AllocsPerRun(200, func() {
		if rec := post(t, g, "/v1/predict", body); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	t.Logf("proxied predict: %.0f allocs per request", allocs)
	const budget = 141 + 10
	if allocs > budget {
		t.Errorf("a proxied predict allocated %.0f objects, budget %d", allocs, budget)
	}
}

// TestCacheHitAllocs pins the allocations of one /v1/predict request the
// gateway answers from its response cache, request and recorder
// included: reading the body, the strict decode and machine resolution
// behind the ring key, the lookup and the write. The stub replica
// claims an LRU hit, so its first answer is stored. The budget is the
// count measured when it was set plus a margin of 5, as for the
// server's handlers: no HTTP client runs, so the count repeats exactly.
func TestCacheHitAllocs(t *testing.T) {
	s := newStubReplica()
	defer s.ts.Close()
	s.hit.Store(true)
	g, err := New(testConfig(s.ts.URL), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := predictBody(16)
	post(t, g, "/v1/predict", body)
	allocs := testing.AllocsPerRun(200, func() {
		if rec := post(t, g, "/v1/predict", body); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	if n := s.requests.Load(); n != 1 {
		t.Fatalf("the stub saw %d requests; the repeats were not cache hits", n)
	}
	t.Logf("cached predict: %.0f allocs per request", allocs)
	const budget = 43 + 5
	if allocs > budget {
		t.Errorf("a cached predict allocated %.0f objects, budget %d", allocs, budget)
	}
}
