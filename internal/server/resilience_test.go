package server

import (
	"net/http"
	"testing"

	"krak/pkg/krak"
)

// TestMachineCapFullCarriesRetryAfter pins the transient-refusal
// contract the gateway's retry layer depends on: a machine-cache-full
// 503 is advertised as retryable, not as a dead end.
func TestMachineCapFullCarriesRetryAfter(t *testing.T) {
	s := quickServer()
	for i := 0; i < maxMachines; i++ {
		ms := krak.MachineSpec{Seed: uint64(i + 1), Quick: true}.Normalized()
		if _, err := s.machineFor(ms); err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
	}
	w := post(t, s, "/v1/predict", `{"machine":{"seed":424242}}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got == "" {
		t.Fatal("machine-cache-full 503 without Retry-After")
	}
	// The cached-spec fast path refuses identically: same spec again.
	w = post(t, s, "/v1/predict", `{"machine":{"seed":424242}}`)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("repeat refusal: status %d, Retry-After %q", w.Code, w.Header().Get("Retry-After"))
	}
}

// TestCloseIsSafeOnIdleServer: a server that never served a request
// closes cleanly and idempotently, and refuses work that arrives after
// Close with the transient-refusal contract.
func TestCloseIsSafeOnIdleServer(t *testing.T) {
	s := quickServer()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	w := post(t, s, "/v1/predict", `{"deck":"small","pes":4}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("post-Close 503 without Retry-After")
	}
}
