package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock is a goroutine-safe clock whose sleeps advance it by the
// requested duration plus a fixed oversleep.
type fakeClock struct {
	mu        sync.Mutex
	t         time.Time
	oversleep time.Duration
	slept     int
}

func (f *fakeClock) clock() clock {
	return clock{
		now: func() time.Time {
			f.mu.Lock()
			defer f.mu.Unlock()
			return f.t
		},
		sleep: func(d time.Duration) {
			f.mu.Lock()
			defer f.mu.Unlock()
			f.t = f.t.Add(d + f.oversleep)
			f.slept++
		},
	}
}

func TestPaceBehindScheduleCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	fc := &fakeClock{t: due.Add(3 * time.Millisecond)}
	origin, over := fc.clock().pace(due)
	if !origin.Equal(due) || over != 0 || fc.slept != 0 {
		t.Fatalf("behind schedule: origin %v over %v slept %d; want the due time, 0, no sleep",
			origin.Sub(due), over, fc.slept)
	}
}

func TestPaceIdleCountsFromWakeTime(t *testing.T) {
	due := time.Unix(100, 0)
	fc := &fakeClock{t: due.Add(-time.Millisecond), oversleep: 150 * time.Microsecond}
	origin, over := fc.clock().pace(due)
	if want := due.Add(150 * time.Microsecond); !origin.Equal(want) {
		t.Errorf("idle: origin is %v after due, want the wake time (150µs after)", origin.Sub(due))
	}
	if over != 150*time.Microsecond || fc.slept != 1 {
		t.Errorf("idle: oversleep %v after %d sleeps, want 150µs after 1", over, fc.slept)
	}
}

// TestOpenLoopRecordsOversleepSeparately drives the open loop against an
// instant server on a fake clock: every request after the first sleeps
// and oversleeps, and each oversleep lands in the pacing record.
func TestOpenLoopRecordsOversleepSeparately(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, nil, nil)
	defer c.close()
	fc := &fakeClock{t: time.Unix(100, 0), oversleep: 80 * time.Microsecond}
	q := &seq{st: newHotStream(1)}
	res := openLoop(context.Background(), c, q, 1000, 20, fc.clock())
	if len(res.oversleep) != 19 {
		t.Fatalf("%d oversleep records, want 19 (every request but the first slept)", len(res.oversleep))
	}
	for _, o := range res.oversleep {
		if o != 80*time.Microsecond {
			t.Fatalf("oversleep %v, want 80µs", o)
		}
	}
	for i, s := range res.samples {
		if s.status != http.StatusOK || s.idx != i {
			t.Fatalf("sample %d: status %d, stream position %d; want 200 at %d", i, s.status, s.idx, i)
		}
	}
}

func TestErrorRateCountsEveryFailureClass(t *testing.T) {
	samples := []sample{
		{status: 0},                   // transport error
		{status: 429},                 // admission refusal
		{status: 503},                 // unavailable
		{status: 500},                 // other non-200
		{status: 404},                 // other non-200
		{status: 200, mismatch: true}, // wrong body
		{status: 200}, {status: 200}, {status: 200}, {status: 200},
	}
	tl := tallyOf(samples[:6], samples[6:])
	if tl.attempted != 10 || tl.failed() != 6 || tl.errorRate() != 0.6 {
		t.Fatalf("attempted %d failed %d rate %g; want 10, 6, 0.6", tl.attempted, tl.failed(), tl.errorRate())
	}
	want := [...]int{outcomeOK: 4, outcomeTransport: 1, outcomeRefused: 2, outcomeStatus: 2, outcomeMismatch: 1}
	if tl.byClass != want {
		t.Fatalf("by class %v, want %v", tl.byClass, want)
	}
	if r := tallyOf().errorRate(); r != 0 {
		t.Fatalf("error rate of nothing attempted = %g, want 0", r)
	}
}
