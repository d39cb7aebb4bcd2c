package gateway

import (
	"sync"
	"time"
)

// Breaker states, exported on krak_gateway_breaker_state{replica} (the
// gauge values are the iota order: 0 closed, 1 half-open, 2 open).
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

// breaker is one replica's circuit breaker: closed (traffic flows)
// until threshold consecutive failures open it; open refuses traffic
// for the cooldown; after the cooldown a single half-open probe is let
// through — its success closes the breaker, its failure re-opens it for
// another cooldown. The point is to stop burning retry budget (and
// per-attempt latency) on a replica that has been failing continuously,
// while still noticing recovery without operator action.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    int
	failures int       // consecutive, in closed state
	openedAt time.Time // when the breaker (re-)opened
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may be sent through the breaker now.
// In the open state it transitions to half-open once the cooldown has
// passed — and allows exactly that one probe; further calls see
// half-open and are refused until the probe reports.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: the probe is in flight
		return false
	}
}

// success reports a completed request; it closes a half-open breaker
// and clears the consecutive-failure count.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
}

// failure reports a failed request: the half-open probe failing re-opens
// immediately, a closed breaker opens at the threshold.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openedAt = now
		return
	}
	b.failures++
	if b.state == breakerClosed && b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = now
	}
}

// abandon reports an attempt that ended with no verdict on the replica
// because the client gave up first. The failure count is untouched; a
// half-open probe goes back to open with its cooldown already spent, so
// the next request probes again instead of the breaker waiting forever
// on a probe that will never report.
func (b *breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
	}
}

// value returns the state as the metric gauge value.
func (b *breaker) value() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
