package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolWorkers(t *testing.T) {
	if got := New(4).Workers(); got != 4 {
		t.Errorf("New(4).Workers() = %d, want 4", got)
	}
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Serial().Workers(); got != 1 {
		t.Errorf("Serial().Workers() = %d, want 1", got)
	}
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", got)
	}
}

// TestMapOrdering checks that results come back in submission order even
// when later indices finish first.
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		n := 50
		got, err := Map(context.Background(), p, n, func(_ context.Context, i int) (int, error) {
			// Sleep longer for earlier indices so completion order is
			// roughly the reverse of submission order.
			time.Sleep(time.Duration(n-i) * 20 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapNilPoolSerial checks the nil pool runs inline and stops at the
// first error like a plain loop.
func TestMapNilPoolSerial(t *testing.T) {
	ran := 0
	boom := errors.New("boom")
	_, err := Map(context.Background(), nil, 10, func(_ context.Context, i int) (int, error) {
		ran++
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran != 4 {
		t.Fatalf("serial map ran %d jobs after failure at index 3, want 4", ran)
	}
}

// TestMapFirstErrorWins checks the reported error is the failing job with
// the lowest index, not whichever failure happened to land first.
func TestMapFirstErrorWins(t *testing.T) {
	p := New(8)
	errAt := func(i int) error { return fmt.Errorf("job %d failed", i) }
	// Job 5 must not fail before job 2's fn has started: a worker that has
	// claimed index 2 but not yet called fn would otherwise see the
	// cancelled context and record a cancellation instead of the genuine
	// error, legitimately making job 5 the lowest genuine failure.
	var started, release sync.WaitGroup
	started.Add(1)
	release.Add(1)
	_, err := Map(context.Background(), p, 16, func(_ context.Context, i int) (int, error) {
		switch i {
		case 2:
			// Fail late so index 5 fails first in wall-clock order.
			started.Done()
			release.Wait()
			return 0, errAt(2)
		case 5:
			started.Wait()
			defer release.Done()
			return 0, errAt(5)
		default:
			return i, nil
		}
	})
	if err == nil || err.Error() != "job 2 failed" {
		t.Fatalf("err = %v, want job 2 failed", err)
	}
}

// TestMapCancellationStopsWork checks that cancelling the parent context
// stops unstarted jobs and surfaces the context error.
func TestMapCancellationStopsWork(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	_, err := Map(ctx, p, 1000, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			cancel()
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("all %d jobs started despite cancellation", n)
	}
}

// TestMapErrorCancelsInFlight checks fail-fast: after one job fails, the
// context handed to running jobs is cancelled and pending jobs are
// skipped.
func TestMapErrorCancelsInFlight(t *testing.T) {
	p := New(2)
	boom := errors.New("boom")
	var started atomic.Int32
	_, err := Map(context.Background(), p, 1000, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		// Wait for the cancellation the failure must trigger.
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Second):
			return 0, errors.New("cancellation never arrived")
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("all %d jobs started despite failure", n)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), New(4), 0, func(context.Context, int) (int, error) {
		t.Fatal("fn called for n=0")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("Map(n=0) = %v, %v; want empty, nil", got, err)
	}
}

// TestMapNestedBounded checks the pool bound is global: outer jobs that
// themselves fan out rows on the same pool never push the number of
// concurrently executing leaf jobs past Workers().
func TestMapNestedBounded(t *testing.T) {
	const width = 4
	p := New(width)
	var inFlight, peak atomic.Int32
	leaf := func() {
		v := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			cur := peak.Load()
			if v <= cur || peak.CompareAndSwap(cur, v) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, err := Map(context.Background(), p, 6, func(ctx context.Context, i int) (int, error) {
		rows, err := Map(ctx, p, 6, func(_ context.Context, j int) (int, error) {
			leaf()
			return i*10 + j, nil
		})
		if err != nil {
			return 0, err
		}
		return rows[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > width {
		t.Fatalf("peak leaf concurrency %d exceeds pool width %d", got, width)
	}
}
