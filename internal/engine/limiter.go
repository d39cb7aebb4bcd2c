package engine

import (
	"context"
	"errors"
)

// ErrSaturated is returned by Limiter.Acquire when every slot is held and
// the bounded wait queue is full — the signal a serving layer turns into
// backpressure (HTTP 429 with Retry-After) instead of letting work pile
// up without bound.
var ErrSaturated = errors.New("engine: limiter saturated")

// Limiter bounds how many callers hold a slot at once, with a bounded
// FIFO-ish wait queue behind the slots: the admission-control primitive.
// Up to limit callers run; up to queue more wait for a slot; anyone
// beyond that is refused immediately with ErrSaturated. Contrast with
// Pool, which schedules cooperative jobs the server itself submits — a
// Limiter gates hostile arrival processes (HTTP requests) that must be
// refused, not buffered, past a point.
//
// A nil *Limiter is unlimited: Acquire always succeeds instantly and
// Release is a no-op, so an endpoint class can be configured wide open
// without branching at call sites.
type Limiter struct {
	slots   chan struct{} // capacity = concurrent limit; a send acquires
	waiting chan struct{} // capacity = queue depth; occupancy while blocked
}

// NewLimiter returns a limiter admitting limit concurrent holders with a
// wait queue of depth queue. limit <= 0 selects 1; queue < 0 selects 0
// (refuse instantly when all slots are held).
func NewLimiter(limit, queue int) *Limiter {
	if limit <= 0 {
		limit = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Limiter{
		slots:   make(chan struct{}, limit),
		waiting: make(chan struct{}, queue),
	}
}

// Acquire takes a slot, waiting in the bounded queue when all slots are
// held. It returns nil once a slot is held (the caller must Release),
// ErrSaturated immediately when the queue is also full, or ctx.Err() if
// the context ends while waiting.
func (l *Limiter) Acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	// Fast path: a free slot, no queueing.
	select {
	case l.slots <- struct{}{}:
		return nil
	default:
	}
	// Slots are all held: enter the bounded queue or be refused.
	select {
	case l.waiting <- struct{}{}:
	default:
		return ErrSaturated
	}
	defer func() { <-l.waiting }()
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot taken by Acquire.
func (l *Limiter) Release() {
	if l == nil {
		return
	}
	<-l.slots
}

// InFlight reports how many slots are currently held.
func (l *Limiter) InFlight() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}

// Waiting reports how many callers are blocked in the wait queue.
func (l *Limiter) Waiting() int {
	if l == nil {
		return 0
	}
	return len(l.waiting)
}

// Limit reports the concurrent-holder bound (0 for the nil, unlimited
// limiter).
func (l *Limiter) Limit() int {
	if l == nil {
		return 0
	}
	return cap(l.slots)
}

// QueueDepth reports the wait-queue bound (0 for the nil limiter).
func (l *Limiter) QueueDepth() int {
	if l == nil {
		return 0
	}
	return cap(l.waiting)
}
