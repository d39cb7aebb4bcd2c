package gateway

import (
	"testing"
	"time"
)

func TestBreakerOpensAtThreshold(t *testing.T) {
	now := time.Now()
	b := newBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		b.failure(now)
		if !b.allow(now) {
			t.Fatalf("breaker opened after %d failures, threshold 3", i+1)
		}
	}
	b.failure(now)
	if b.allow(now) {
		t.Fatal("breaker still closed at the threshold")
	}
	if b.value() != breakerOpen {
		t.Fatalf("state %d, want open", b.value())
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	now := time.Now()
	b := newBreaker(3, time.Minute)
	b.failure(now)
	b.failure(now)
	b.success()
	b.failure(now)
	b.failure(now)
	if !b.allow(now) {
		t.Fatal("non-consecutive failures opened the breaker")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	now := time.Now()
	b := newBreaker(1, 100*time.Millisecond)
	b.failure(now)
	if b.allow(now) {
		t.Fatal("open breaker allowed traffic inside the cooldown")
	}
	later := now.Add(150 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("cooldown elapsed but no half-open probe allowed")
	}
	if b.value() != breakerHalfOpen {
		t.Fatalf("state %d, want half-open", b.value())
	}
	// Only one probe until it reports.
	if b.allow(later) {
		t.Fatal("second request allowed through a half-open breaker")
	}
	b.success()
	if b.value() != breakerClosed || !b.allow(later) {
		t.Fatal("successful probe did not close the breaker")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	now := time.Now()
	b := newBreaker(1, 100*time.Millisecond)
	b.failure(now)
	later := now.Add(150 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("no half-open probe")
	}
	b.failure(later)
	if b.value() != breakerOpen {
		t.Fatalf("state %d after failed probe, want open", b.value())
	}
	if b.allow(later.Add(50 * time.Millisecond)) {
		t.Fatal("re-opened breaker allowed traffic before a fresh cooldown")
	}
	if !b.allow(later.Add(150 * time.Millisecond)) {
		t.Fatal("re-opened breaker never recovered")
	}
}

// TestBreakerAbandonedProbeProbesAgain: a half-open probe whose client
// gave up reports nothing about the replica, so the next request gets
// the probe instead of the breaker staying half-open forever.
func TestBreakerAbandonedProbeProbesAgain(t *testing.T) {
	now := time.Now()
	b := newBreaker(2, 100*time.Millisecond)
	b.failure(now)
	b.abandon()
	b.failure(now)
	if b.value() != breakerOpen {
		t.Fatalf("state %d, want open: abandon must not reset the failure count", b.value())
	}
	later := now.Add(150 * time.Millisecond)
	if !b.allow(later) {
		t.Fatal("no half-open probe")
	}
	b.abandon()
	if b.value() != breakerOpen {
		t.Fatalf("state %d after an abandoned probe, want open", b.value())
	}
	if !b.allow(later) {
		t.Fatal("abandoned probe was not handed to the next request")
	}
}
