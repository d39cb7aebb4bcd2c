package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// clock is the generator's time source; tests substitute a fake one.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var realClock = clock{now: time.Now, sleep: time.Sleep}

// pace waits for a request's due time and returns the instant its
// latency counts from. Behind schedule, that is the due time, so a stall
// is charged to every request it delayed. Ahead of schedule the generator
// sleeps, and latency counts from when it woke: a timer that overslept is
// the generator's lateness, not the program's, and is returned separately
// as oversleep.
func (c clock) pace(due time.Time) (origin time.Time, oversleep time.Duration) {
	now := c.now()
	if !now.Before(due) {
		return due, 0
	}
	c.sleep(due.Sub(now))
	wake := c.now()
	return wake, wake.Sub(due)
}

// sample is one request's outcome as the generator saw it.
type sample struct {
	idx      int           // position in the workload's request stream
	lat      time.Duration // origin (or send, in the closed loop) to last body byte
	status   int           // 0 on a transport error
	n        int           // body length
	sum      [32]byte      // body sha256
	mismatch bool          // set by verification
}

// Outcome classes for error_rate; every one but outcomeOK is a failure.
const (
	outcomeOK = iota
	outcomeTransport
	outcomeRefused // 429 or 503: admission or availability refusal
	outcomeStatus  // any other non-200
	outcomeMismatch
)

func (s *sample) outcome() int {
	switch {
	case s.status == 0:
		return outcomeTransport
	case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
		return outcomeRefused
	case s.status != http.StatusOK:
		return outcomeStatus
	case s.mismatch:
		return outcomeMismatch
	}
	return outcomeOK
}

// tally counts a window's attempts and failures by class.
type tally struct {
	attempted int
	byClass   [outcomeMismatch + 1]int
}

func tallyOf(samples ...[]sample) tally {
	var t tally
	for _, ss := range samples {
		for i := range ss {
			t.attempted++
			t.byClass[ss[i].outcome()]++
		}
	}
	return t
}

func (t tally) failed() int { return t.attempted - t.byClass[outcomeOK] }

// errorRate is failed / attempted; 0 when nothing was attempted.
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// client sends requests to one base URL over a fixed set of keep-alive
// connections, one http.Client each, so the connection count is exact.
type client struct {
	base  string
	conns []*http.Client
	bufs  []bytes.Buffer
	spans *recorder // nil outside the traced run
	keep  func(idx int, kind Kind) bool
	kept  sync.Map // idx -> []byte, the bodies keep selected
}

func newClient(base string, conns int, spans *recorder, keep func(int, Kind) bool) *client {
	c := &client{base: base, spans: spans, keep: keep, bufs: make([]bytes.Buffer, conns)}
	for range conns {
		c.conns = append(c.conns, &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.conns {
		hc.CloseIdleConnections()
	}
}

// do sends req on connection conn and fills s (all but lat).
func (c *client) do(ctx context.Context, conn, idx int, req Request, s *sample) {
	*s = sample{idx: idx}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	var start time.Time
	if c.spans != nil {
		hr.Header.Set(idHeader, strconv.Itoa(idx))
		start = time.Now()
	}
	resp, err := c.conns[conn].Do(hr)
	if err != nil {
		return
	}
	buf := &c.bufs[conn]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if c.spans != nil {
		c.spans.add(span{layer: layerClient, id: idx, conn: conn, start: c.spans.since(start), end: c.spans.since(time.Now())})
	}
	if err != nil {
		return
	}
	s.status, s.n, s.sum = resp.StatusCode, buf.Len(), sha256.Sum256(buf.Bytes())
	if c.keep != nil && c.keep(idx, req.Kind) {
		c.kept.Store(idx, bytes.Clone(buf.Bytes()))
	}
}

// body returns the kept body of request idx, if keep selected it.
func (c *client) body(idx int) ([]byte, bool) {
	b, ok := c.kept.Load(idx)
	if !ok {
		return nil, false
	}
	return b.([]byte), true
}

// seq hands out a stream's requests with their stream positions; it is
// safe for the closed loop's concurrent workers.
type seq struct {
	mu   sync.Mutex
	st   Stream
	next int
}

func (q *seq) take() (int, Request) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := q.next
	q.next++
	return i, q.st.Next()
}

// align discards requests, unsent, until the next position is a multiple
// of k.
func (q *seq) align(k int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.next%k != 0 {
		q.st.Next()
		q.next++
	}
}

// openResult is an open-loop window's samples and pacing record.
type openResult struct {
	samples   []sample
	oversleep []time.Duration
}

// openLoop sends n requests at a fixed rate over the client's connections.
// A single scheduler paces arrivals; when every connection is busy it
// blocks, later arrivals fall behind schedule, and their latency counts
// from their due time.
func openLoop(ctx context.Context, c *client, q *seq, rate float64, n int, clk clock) openResult {
	res := openResult{samples: make([]sample, n), oversleep: make([]time.Duration, 0, n)}
	type job struct {
		i      int
		idx    int
		req    Request
		origin time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for conn := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				s := &res.samples[j.i]
				c.do(ctx, conn, j.idx, j.req, s)
				s.lat = clk.now().Sub(j.origin)
			}
		}()
	}
	start := clk.now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		idx, req := q.take()
		origin, over := clk.pace(start.Add(time.Duration(i) * interval))
		if over > 0 {
			res.oversleep = append(res.oversleep, over)
		}
		jobs <- job{i, idx, req, origin}
	}
	close(jobs)
	wg.Wait()
	return res
}

// closedLoop runs one back-to-back sender per connection until d has
// passed and returns the samples plus the time from start until the last
// reply.
func closedLoop(ctx context.Context, c *client, q *seq, d time.Duration) ([]sample, time.Duration) {
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for conn := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for ctx.Err() == nil && time.Now().Before(deadline) {
				idx, req := q.take()
				var s sample
				t0 := time.Now()
				c.do(ctx, conn, idx, req, &s)
				s.lat = time.Since(t0)
				mine = append(mine, s)
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// post sends one set-up request and fails on anything but 200.
func post(ctx context.Context, hc *http.Client, base string, req Request) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", req.Path, req.Body, resp.StatusCode, body)
	}
	return nil
}
