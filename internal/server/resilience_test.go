package server

import (
	"net/http"
	"path/filepath"
	"testing"
	"time"

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

// TestJobStoreFullCarriesRetryAfter: a job store full of unfinished
// jobs answers 429 with a Retry-After.
func TestJobStoreFullCarriesRetryAfter(t *testing.T) {
	s := quickServer(func(c *Config) { c.MaxJobs = 1 })
	if _, err := s.jobs.add(time.Now()); err != nil {
		t.Fatal(err)
	}
	w := post(t, s, "/v1/jobs", `{"decks":["small"],"pes":[2]}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Retry-After"); got == "" {
		t.Fatal("job-store-full 429 without Retry-After")
	}
}

// TestCloseDrainsBackgroundJobs is the graceful-shutdown regression
// test: Close returns only after every background job goroutine has
// exited, leaves no temp files in the cache directory, refuses requests
// that arrive afterwards, and stays idempotent.
func TestCloseDrainsBackgroundJobs(t *testing.T) {
	dir := t.TempDir()
	s := quickServer(func(c *Config) { c.CacheDir = dir })
	// A sweep wide enough that some of it is still running when Close
	// lands, so the test exercises the drain rather than a no-op wait.
	w := post(t, s, "/v1/jobs", `{"decks":["small","medium"],"pes":[2,4,8,16,32,64]}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return — a background job goroutine is stuck")
	}

	// The job goroutine has exited; the store may hold a finished or a
	// canceled job, but nothing still marked running.
	s.jobs.mu.Lock()
	for id, j := range s.jobs.jobs {
		if j.doneAt.IsZero() {
			t.Errorf("job %s still running after Close", id)
		}
	}
	s.jobs.mu.Unlock()

	// No half-written cache entries left behind.
	for _, pattern := range []string{
		filepath.Join(dir, ".tmp-*"),
		filepath.Join(dir, "*", ".tmp-*"),
		filepath.Join(dir, "*", "*", ".tmp-*"),
	} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 0 {
			t.Errorf("temp files left in the cache dir: %v", matches)
		}
	}

	// New work is refused with the transient-refusal contract.
	w = post(t, s, "/v1/predict", `{"deck":"small","pes":4}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("post-Close 503 without Retry-After")
	}

	// Idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseIsSafeOnIdleServer: a server that never served a request
// closes cleanly (the job drain must tolerate nothing having
// happened).
func TestCloseIsSafeOnIdleServer(t *testing.T) {
	s := quickServer()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
