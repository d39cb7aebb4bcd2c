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
	const budget = 135 + 10
	if allocs > budget {
		t.Errorf("a proxied predict allocated %.0f objects, budget %d", allocs, budget)
	}
}
