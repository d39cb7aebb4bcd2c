// Package faultinject is the deterministic chaos layer of the serving
// tier: an Injector configured from a bounded textual plan that makes a
// configurable fraction of HTTP traffic fail, stall, truncate, or
// corrupt — reproducibly. It exists so the resilience machinery
// (gateway retries, circuit breakers, failover) can be proven
// against faults rather than trusted, and so a chaos run can be
// replayed byte-for-byte: every injection decision is a pure function
// of the plan's seed, the request's content, and how many times that
// exact request has been seen, never of wall-clock time or scheduling
// order. Two runs over the same request multiset inject the same fault
// sequence, whatever the interleaving.
//
// The injector wires in at two points: Middleware wraps a server's
// routes (krak serve -fault-plan, refused unless -allow-faults is also
// set, so chaos can never ship on by accident), and RoundTripper wraps
// a client transport (the gateway's replica client), where an injected
// "error" surfaces as a transport failure — exactly what a dying
// replica looks like from the gateway's side.
//
// A nil *Injector is a valid no-op: both wrappers pass traffic through
// untouched, so callers thread it unconditionally.
package faultinject

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Plan is a parsed fault plan: what to inject, how often, and where.
// The zero value injects nothing.
type Plan struct {
	// Name is an optional display name (the plan directive).
	Name string

	// Seed drives every injection decision; 0 means 1.
	Seed uint64

	// Scopes are path prefixes the plan applies to ("/v1/predict",
	// "/v1/"); empty means every path.
	Scopes []string

	// ErrorRate is the fraction of in-scope requests that fail outright:
	// Middleware writes ErrorStatus, RoundTripper returns a transport
	// error. Mutually exclusive per request with truncation/corruption
	// (one draw selects among them).
	ErrorRate float64

	// ErrorStatus is the status Middleware writes for injected errors;
	// 0 means 500.
	ErrorStatus int

	// LatencyRate is the fraction of in-scope requests delayed by an
	// injected latency drawn uniformly from [LatencyMin, LatencyMax].
	// Latency is an independent draw: a request can be both slow and
	// broken, like real failure modes.
	LatencyRate float64
	LatencyMin  time.Duration
	LatencyMax  time.Duration

	// TruncateRate is the fraction of in-scope responses cut to half
	// their bytes; CorruptRate is the fraction with digits changed,
	// which keeps a JSON body valid JSON (see corruptBytes). Both leave
	// the status code intact — the body lies, which is what the
	// gateway's digest check must catch.
	TruncateRate float64
	CorruptRate  float64
}

// Injection kinds, the krak_fault_injected_total{kind} label values.
const (
	KindError    = "error"
	KindLatency  = "latency"
	KindTruncate = "truncate"
	KindCorrupt  = "corrupt"
)

// Parse bounds. A fault plan is a handful of directives; anything
// larger is rejected before allocation, which is what keeps
// ParseFaultPlan safe on fuzzer-shaped input.
const (
	maxPlanBytes  = 1 << 16
	maxPlanLines  = 256
	maxPlanScopes = 32
	maxLatency    = 10 * time.Second
)

// ParseFaultPlan parses the bounded textual plan format:
//
//	plan NAME                  # optional display name
//	seed N                     # decision seed (default 1)
//	scope /v1/predict          # path prefix (repeatable; default: all)
//	error-rate 0.2             # fraction of requests failed outright
//	error-status 503           # status Middleware writes (default 500)
//	latency-rate 0.5           # fraction of requests delayed
//	latency 5ms 50ms           # injected latency bounds
//	truncate-rate 0.05         # fraction of responses cut in half
//	corrupt-rate 0.05          # fraction of responses with changed digits
//
// Lines are directive-per-line, '#' starts a comment, blank lines are
// ignored. Rates must lie in [0,1] and sum (error+truncate+corrupt) to
// at most 1; latency bounds are Go durations, non-negative, min <= max,
// and capped at 10s.
func ParseFaultPlan(src []byte) (*Plan, error) {
	if len(src) > maxPlanBytes {
		return nil, fmt.Errorf("faultinject: plan exceeds %d bytes", maxPlanBytes)
	}
	p := &Plan{Seed: 1, ErrorStatus: http.StatusInternalServerError}
	lines := strings.Split(string(src), "\n")
	if len(lines) > maxPlanLines {
		return nil, fmt.Errorf("faultinject: plan exceeds %d lines", maxPlanLines)
	}
	for i, line := range lines {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		lineErr := func(format string, args ...any) error {
			return fmt.Errorf("faultinject: line %d: %s", i+1, fmt.Sprintf(format, args...))
		}
		dir, args := fields[0], fields[1:]
		switch dir {
		case "plan":
			if len(args) != 1 {
				return nil, lineErr("plan wants exactly one name")
			}
			p.Name = args[0]
		case "seed":
			if len(args) != 1 {
				return nil, lineErr("seed wants exactly one value")
			}
			var seed uint64
			if _, err := fmt.Sscanf(args[0], "%d", &seed); err != nil || seed == 0 {
				return nil, lineErr("bad seed %q (want a positive integer)", args[0])
			}
			p.Seed = seed
		case "scope":
			if len(args) != 1 || !strings.HasPrefix(args[0], "/") {
				return nil, lineErr("scope wants exactly one path prefix starting with /")
			}
			if len(p.Scopes) >= maxPlanScopes {
				return nil, lineErr("more than %d scopes", maxPlanScopes)
			}
			p.Scopes = append(p.Scopes, args[0])
		case "error-rate":
			if err := parseRate(args, &p.ErrorRate); err != nil {
				return nil, lineErr("%v", err)
			}
		case "error-status":
			if len(args) != 1 {
				return nil, lineErr("error-status wants exactly one value")
			}
			var status int
			if _, err := fmt.Sscanf(args[0], "%d", &status); err != nil || status < 400 || status > 599 {
				return nil, lineErr("bad error-status %q (want 400..599)", args[0])
			}
			p.ErrorStatus = status
		case "latency-rate":
			if err := parseRate(args, &p.LatencyRate); err != nil {
				return nil, lineErr("%v", err)
			}
		case "latency":
			if len(args) != 2 {
				return nil, lineErr("latency wants MIN MAX durations")
			}
			min, err1 := time.ParseDuration(args[0])
			max, err2 := time.ParseDuration(args[1])
			if err1 != nil || err2 != nil || min < 0 || max < min || max > maxLatency {
				return nil, lineErr("bad latency bounds %q %q (want 0 <= min <= max <= %v)", args[0], args[1], maxLatency)
			}
			p.LatencyMin, p.LatencyMax = min, max
		case "truncate-rate":
			if err := parseRate(args, &p.TruncateRate); err != nil {
				return nil, lineErr("%v", err)
			}
		case "corrupt-rate":
			if err := parseRate(args, &p.CorruptRate); err != nil {
				return nil, lineErr("%v", err)
			}
		default:
			return nil, lineErr("unknown directive %q", dir)
		}
	}
	if sum := p.ErrorRate + p.TruncateRate + p.CorruptRate; sum > 1 {
		return nil, fmt.Errorf("faultinject: error+truncate+corrupt rates sum to %g (max 1)", sum)
	}
	return p, nil
}

// parseRate parses a single probability in [0,1].
func parseRate(args []string, dst *float64) error {
	if len(args) != 1 {
		return fmt.Errorf("rate wants exactly one value")
	}
	var v float64
	if _, err := fmt.Sscanf(args[0], "%g", &v); err != nil || v != v || v < 0 || v > 1 {
		return fmt.Errorf("bad rate %q (want a probability in [0,1])", args[0])
	}
	*dst = v
	return nil
}

// maxTrackedKeys bounds the per-request occurrence map. Past the cap,
// repeats of a novel request all draw as occurrence 0 — still
// deterministic, just without per-repeat variety.
const maxTrackedKeys = 4096

// maxFaultBody bounds how much of a request body the injector reads to
// derive its content key, mirroring the serving tier's body cap.
const maxFaultBody = 1 << 20

// Injector makes deterministic injection decisions for a Plan and
// counts what it injected. Build with New; a nil Injector injects
// nothing.
type Injector struct {
	plan Plan

	mu   sync.Mutex
	seen map[string]uint64 // request key → occurrences so far (bounded)

	errors    atomic.Int64
	latencies atomic.Int64
	truncates atomic.Int64
	corrupts  atomic.Int64
}

// New builds an Injector for the plan. A nil plan yields a nil
// (no-op) injector.
func New(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	plan := *p
	if plan.Seed == 0 {
		plan.Seed = 1
	}
	if plan.ErrorStatus == 0 {
		plan.ErrorStatus = http.StatusInternalServerError
	}
	return &Injector{plan: plan, seen: make(map[string]uint64)}
}

// Totals snapshots the injected-fault counters by kind — the series
// behind krak_fault_injected_total{kind}, and the number a determinism
// check diffs across runs.
func (in *Injector) Totals() map[string]int64 {
	if in == nil {
		return map[string]int64{KindError: 0, KindLatency: 0, KindTruncate: 0, KindCorrupt: 0}
	}
	return map[string]int64{
		KindError:    in.errors.Load(),
		KindLatency:  in.latencies.Load(),
		KindTruncate: in.truncates.Load(),
		KindCorrupt:  in.corrupts.Load(),
	}
}

// MetricSeries returns per-kind scrape-time readers over the injected-
// fault counters — the series map for registering
// krak_fault_injected_total{kind} on a metrics registry. Nil-safe (a
// nil injector's series all read 0), though callers normally register
// only when a plan is armed.
func (in *Injector) MetricSeries() map[string]func() float64 {
	out := make(map[string]func() float64, 4)
	for _, kind := range []string{KindError, KindLatency, KindTruncate, KindCorrupt} {
		kind := kind
		out[kind] = func() float64 { return float64(in.Totals()[kind]) }
	}
	return out
}

// inScope reports whether the plan applies to the path.
func (in *Injector) inScope(path string) bool {
	if len(in.plan.Scopes) == 0 {
		return true
	}
	for _, s := range in.plan.Scopes {
		if strings.HasPrefix(path, s) {
			return true
		}
	}
	return false
}

// decision is what one request draw decided.
type decision struct {
	kind    string // KindError/KindTruncate/KindCorrupt or "" for none
	latency time.Duration
}

// requestKey derives the content identity a decision keys on: method,
// path, and a digest of the body. Two requests with identical content
// share a key (and differ only in their occurrence number), which is
// what makes the fault sequence a function of the traffic rather than
// of arrival order.
func requestKey(method, path string, body []byte) string {
	sum := sha256.Sum256(body)
	return fmt.Sprintf("%s %s %x", method, path, sum[:8])
}

// decide makes the deterministic draw for the key's next occurrence.
func (in *Injector) decide(key string) decision {
	in.mu.Lock()
	occ, tracked := in.seen[key], true
	if _, ok := in.seen[key]; !ok && len(in.seen) >= maxTrackedKeys {
		tracked = false
	}
	if tracked {
		in.seen[key] = occ + 1
	}
	in.mu.Unlock()

	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], in.plan.Seed)
	h := sha256.New()
	h.Write(buf[:])
	h.Write([]byte(key))
	binary.LittleEndian.PutUint64(buf[:], occ)
	h.Write(buf[:])
	digest := h.Sum(nil)
	lane := func(i int) float64 {
		x := binary.LittleEndian.Uint64(digest[i*8:])
		return float64(x>>11) / (1 << 53)
	}

	var d decision
	outcome := lane(0)
	switch {
	case outcome < in.plan.ErrorRate:
		d.kind = KindError
	case outcome < in.plan.ErrorRate+in.plan.TruncateRate:
		d.kind = KindTruncate
	case outcome < in.plan.ErrorRate+in.plan.TruncateRate+in.plan.CorruptRate:
		d.kind = KindCorrupt
	}
	if in.plan.LatencyRate > 0 && lane(1) < in.plan.LatencyRate {
		span := in.plan.LatencyMax - in.plan.LatencyMin
		d.latency = in.plan.LatencyMin + time.Duration(lane(2)*float64(span))
	}
	return d
}

// sleep injects d's latency, respecting ctx cancellation.
func (in *Injector) sleep(done <-chan struct{}, d decision) {
	if d.latency <= 0 {
		return
	}
	in.latencies.Add(1)
	t := time.NewTimer(d.latency)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

// corruptBytes deterministically changes bytes in place without
// breaking JSON: every 97th ASCII digit, counting from an offset set by
// the seed, becomes another nonzero digit (d+1, and 9 becomes 8). A
// nonzero digit cannot make a leading zero, and a digit in a string or
// a \uXXXX escape stays a digit, so a valid JSON body stays valid and
// only a checksum of the bytes tells the difference. A body without
// digits has every 97th byte XORed with 0xff instead.
func corruptBytes(b []byte, seed uint64) {
	if len(b) == 0 {
		return
	}
	digits := 0
	for _, c := range b {
		if '0' <= c && c <= '9' {
			digits++
		}
	}
	if digits == 0 {
		for i := int(seed%97) % len(b); i < len(b); i += 97 {
			b[i] ^= 0xff
		}
		return
	}
	flip, seen := int(seed%97)%digits, 0
	for i, c := range b {
		if c < '0' || c > '9' {
			continue
		}
		if seen == flip {
			if c == '9' {
				b[i] = '8'
			} else {
				b[i] = c + 1
			}
			flip += 97
		}
		seen++
	}
}

// bufferingWriter captures a handler's response so the middleware can
// mangle the body before anything reaches the wire.
type bufferingWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (w *bufferingWriter) Header() http.Header         { return w.header }
func (w *bufferingWriter) WriteHeader(code int)        { w.code = code }
func (w *bufferingWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// Middleware wraps a server-side handler in the plan: in-scope requests
// may be delayed, failed with the plan's error status, or have their
// response bodies truncated/corrupted after the real handler ran. A nil
// injector returns next unchanged.
func (in *Injector) Middleware(next http.HandlerFunc) http.HandlerFunc {
	if in == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !in.inScope(r.URL.Path) {
			next(w, r)
			return
		}
		// The decision keys on request content, so the body is read (and
		// restored) before the handler sees it.
		var body []byte
		if r.Body != nil {
			body, _ = io.ReadAll(io.LimitReader(r.Body, maxFaultBody))
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		d := in.decide(requestKey(r.Method, r.URL.Path, body))
		in.sleep(r.Context().Done(), d)
		switch d.kind {
		case KindError:
			in.errors.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(in.plan.ErrorStatus)
			fmt.Fprintf(w, "{\n  \"error\": \"faultinject: injected error (plan %s)\"\n}\n", in.plan.Name)
			return
		case KindTruncate, KindCorrupt:
			bw := &bufferingWriter{header: w.Header().Clone(), code: http.StatusOK}
			next(bw, r)
			out := bw.buf.Bytes()
			if d.kind == KindTruncate {
				in.truncates.Add(1)
				out = out[:len(out)/2]
			} else {
				in.corrupts.Add(1)
				out = bytes.Clone(out)
				corruptBytes(out, in.plan.Seed)
			}
			clear(w.Header())
			for _, k := range slices.Sorted(maps.Keys(bw.header)) {
				for _, v := range bw.header[k] {
					w.Header().Add(k, v)
				}
			}
			// The body lies; its framing does not. Every other header,
			// Content-Digest included, still describes the real body.
			w.Header().Set("Content-Length", strconv.Itoa(len(out)))
			w.WriteHeader(bw.code)
			w.Write(out)
			return
		}
		next(w, r)
	}
}

// transport is the client-side injector: a RoundTripper that fails,
// delays, truncates, or corrupts in-scope exchanges.
type transport struct {
	in   *Injector
	base http.RoundTripper
}

// RoundTripper wraps a client transport in the plan: injected errors
// surface as transport failures (what a dead replica looks like),
// latency as slow replicas, truncation/corruption as garbage responses.
// A nil injector returns base unchanged (http.DefaultTransport when
// base is also nil).
func (in *Injector) RoundTripper(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if in == nil {
		return base
	}
	return &transport{in: in, base: base}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.in
	if !in.inScope(req.URL.Path) {
		return t.base.RoundTrip(req)
	}
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(io.LimitReader(req.Body, maxFaultBody))
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	d := in.decide(requestKey(req.Method, req.URL.Path, body))
	in.sleep(req.Context().Done(), d)
	if d.kind == KindError {
		in.errors.Add(1)
		return nil, fmt.Errorf("faultinject: injected transport error (plan %s)", in.plan.Name)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || d.kind == "" {
		return resp, err
	}
	payload, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	if d.kind == KindTruncate {
		in.truncates.Add(1)
		payload = payload[:len(payload)/2]
	} else {
		in.corrupts.Add(1)
		corruptBytes(payload, in.plan.Seed)
	}
	resp.Body = io.NopCloser(bytes.NewReader(payload))
	resp.ContentLength = int64(len(payload))
	resp.Header.Set("Content-Length", fmt.Sprint(len(payload)))
	return resp, nil
}
