package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLimiterAdmitsUpToLimit(t *testing.T) {
	l := NewLimiter(3, 0)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := l.Acquire(ctx); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if got := l.InFlight(); got != 3 {
		t.Fatalf("InFlight = %d, want 3", got)
	}
	// Queue depth 0: the fourth caller is refused instantly.
	if err := l.Acquire(ctx); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	l.Release()
	if err := l.Acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

// TestLimiterBoundedQueue saturates the slots, fills the wait queue with
// blocked callers, and checks the next caller is refused while the queued
// ones eventually run.
func TestLimiterBoundedQueue(t *testing.T) {
	l := NewLimiter(1, 2)
	ctx := context.Background()
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}

	var admitted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Acquire(ctx); err != nil {
				t.Errorf("queued acquire: %v", err)
				return
			}
			admitted.Add(1)
			l.Release()
		}()
	}
	// Wait until both are in the queue, then the third must be refused.
	deadline := time.Now().Add(5 * time.Second)
	for l.Waiting() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: waiting=%d", l.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Acquire(ctx); !errors.Is(err, ErrSaturated) {
		t.Fatalf("over-queue acquire: %v, want ErrSaturated", err)
	}
	l.Release() // let the queued pair through, one at a time
	wg.Wait()
	if n := admitted.Load(); n != 2 {
		t.Fatalf("admitted %d queued callers, want 2", n)
	}
	// Every queued caller released its own slot on the way out.
	if l.InFlight() != 0 || l.Waiting() != 0 {
		t.Fatalf("not drained: inflight=%d waiting=%d", l.InFlight(), l.Waiting())
	}
}

func TestLimiterAcquireHonorsContext(t *testing.T) {
	l := NewLimiter(1, 4)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if l.Waiting() != 0 {
		t.Fatalf("abandoned waiter still queued: %d", l.Waiting())
	}
}

func TestLimiterNilIsUnlimited(t *testing.T) {
	var l *Limiter
	for i := 0; i < 100; i++ {
		if err := l.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	l.Release()
	if l.InFlight() != 0 || l.Waiting() != 0 {
		t.Fatal("nil limiter reports occupancy")
	}
}

func TestLimiterClamps(t *testing.T) {
	l := NewLimiter(0, -3)
	if cap(l.slots) != 1 || cap(l.waiting) != 0 {
		t.Fatalf("limit=%d queue=%d, want 1/0", cap(l.slots), cap(l.waiting))
	}
}

// TestLimiterCanceledWaiterReleasesQueueSlot is the regression test for
// queue-slot leakage: a waiter that gives up (context canceled) must
// hand its queue slot back promptly, or every abandoned request would
// permanently shrink the wait queue until the limiter refuses everyone.
func TestLimiterCanceledWaiterReleasesQueueSlot(t *testing.T) {
	l := NewLimiter(1, 1)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- l.Acquire(ctx) }()
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(func() bool { return l.Waiting() == 1 }, "the waiter to queue")

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v", err)
	}
	waitFor(func() bool { return l.Waiting() == 0 }, "the queue slot to free")

	// The freed slot admits a fresh waiter instead of refusing it.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	errc2 := make(chan error, 1)
	go func() { errc2 <- l.Acquire(ctx2) }()
	waitFor(func() bool { return l.Waiting() == 1 }, "the fresh waiter to queue")

	// And the canceled waiter did not leak a slot: one Release unblocks it.
	l.Release()
	if err := <-errc2; err != nil {
		t.Fatalf("fresh waiter: %v", err)
	}
	l.Release()
	if got := l.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after full release, want 0", got)
	}
}

// TestLimiterCanceledWaiterStorm hammers the same property under
// contention: 64 waiters that all cancel must leave the queue empty and
// admit a full fresh complement.
func TestLimiterCanceledWaiterStorm(t *testing.T) {
	l := NewLimiter(2, 8)
	for i := 0; i < 2; i++ {
		if err := l.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Acquire(ctx); err == nil {
				l.Release()
			}
		}()
	}
	cancel()
	wg.Wait()
	if got := l.Waiting(); got != 0 {
		t.Fatalf("Waiting = %d after every waiter canceled, want 0", got)
	}
	// The queue's full depth is available again.
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- l.Acquire(context.Background()) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Waiting() != 8 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 8 fresh waiters queued — queue capacity leaked", l.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	l.Release()
	l.Release()
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("fresh waiter %d: %v", i, err)
		}
		l.Release()
	}
}
