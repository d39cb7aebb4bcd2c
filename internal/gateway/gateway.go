// Package gateway is the multi-replica resilience layer in front of
// `krak serve`: a stdlib-only reverse proxy that makes a fleet of
// replicas drivable as one service. Requests route by consistent
// hashing of the serving tier's canonical request keys — the same
// content-derived keys the replicas' response LRUs use — so a given
// scenario always lands on the replica whose caches are already warm
// for it. Around that routing sit the failure-handling layers:
// per-replica health probing, bounded retries with exponential backoff
// and full jitter on idempotent endpoints, per-replica circuit breakers,
// and failover along the hash ring. When every replica for a key is
// unavailable the gateway answers 503, carrying krak.ErrUnavailable
// semantics and a Retry-After.
//
// In front of the forward sits a bounded response cache for the routes
// whose ring key is the replica's own response-LRU key (predict and
// simulate): a repeat question is answered without a second hop. A body
// is stored only when a replica answered it 200, from its own LRU, with
// a Content-Digest the gateway checked, so a key asked once never takes
// gateway memory. Within one build a key's body never changes, which is
// what the replicas' LRUs already rely on; the gateway is restarted
// together with its fleet.
//
// Everything observable is exported through the shared metrics
// registry: krak_gateway_retries_total, krak_gateway_breaker_state,
// krak_gateway_unavailable_total, krak_gateway_cache_hits_total,
// per-replica health gauges, and the standard request/latency families.
// Each response on a cached route says in its RFC 9211 Cache-Status
// which tier answered it.
package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"krak/internal/engine"
	"krak/internal/faultinject"
	"krak/internal/metrics"
	"krak/internal/server"
	"krak/internal/stats"
	"krak/pkg/krak"
)

// maxResponseBody bounds a relayed replica response, which the gateway
// buffers whole to integrity-check it. It is not the 1 MiB request
// bound: a legal 256-point predict sweep already exceeds that. Measured
// with -quick, the largest legal responses are a MaxSweepPoints predict
// sweep (about 17.6 MB), a MaxSweepPoints simulate sweep (about 15 MB)
// and a compare.MaxPoints compare (under 1 MB); the bound leaves
// headroom above all three.
const maxResponseBody = 32 << 20

// cacheEntries bounds the response cache: the replicas' default LRU
// size, so the gateway holds at most what one replica does.
const cacheEntries = 1024

// The Cache-Status members the gateway adds on a cached route: to a body
// it answered from its cache, and to one it forwarded.
const (
	cacheStatusHit = "krak-gateway; hit"
	cacheStatusFwd = "krak-gateway; fwd=uri-miss"
)

// unmatchedLabel is the metric endpoint label every path outside the
// endpoint table shares, so arbitrary paths cannot mint new series.
const unmatchedLabel = "unmatched"

// statusClientClosed is the status recorded for a request whose client
// hung up or timed out before any replica answered (nginx's 499). The
// client never sees it; it keeps such requests apart from real 503s in
// krak_http_requests_total.
const statusClientClosed = 499

// replica is one backend: its URL, probe-maintained health, and
// breaker.
type replica struct {
	url     string
	healthy atomic.Bool
	probes  atomic.Int64
	breaker *breaker
}

// Gateway is the reverse proxy. Build with New, launch health probes
// with Start, serve it as an http.Handler, Close after the listener
// drains.
type Gateway struct {
	cfg      Config
	client   *http.Client
	faults   *faultinject.Injector
	replicas []*replica
	ring     *ring
	metrics  *metrics.Registry
	start    time.Time

	// rng drives retry jitter; guarded by rngMu (SplitMix64 is not
	// concurrency-safe).
	rngMu sync.Mutex
	rng   *stats.SplitMix64

	// probeWG tracks the health-probe goroutines Start launched.
	probeWG sync.WaitGroup

	// proxies holds one instrumented proxy handler per endpoint label,
	// built at New; ServeHTTP picks one by endpointLabel.
	proxies map[string]http.HandlerFunc

	// cache holds the replica-LRU hits of cached routes by ring key (see
	// relay).
	cache *engine.Cache[string, stored]

	requests       atomic.Int64
	cacheHits      atomic.Int64
	retries        atomic.Int64
	unavailable    atomic.Int64
	proxiedByIndex []atomic.Int64
}

// New builds a Gateway. It spawns nothing — call Start to launch the
// health-probe loops. Faults, when non-nil, wraps the replica-facing
// transport in the fault-injection layer (chaos drills only; nil is a
// no-op).
func New(cfg Config, faults *faultinject.Injector) (*Gateway, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	replicas := make([]string, len(cfg.Replicas))
	for i, u := range cfg.Replicas {
		replicas[i] = normalizeReplica(u)
	}
	cfg.Replicas = replicas
	g := &Gateway{
		cfg:    cfg,
		faults: faults,
		client: &http.Client{
			Transport: faults.RoundTripper(http.DefaultTransport.(*http.Transport).Clone()),
		},
		ring:           newRing(cfg.Replicas, virtualNodes),
		cache:          engine.NewCache[string, stored](cacheEntries),
		metrics:        metrics.NewRegistry(),
		start:          time.Now(),
		rng:            stats.NewSplitMix64(jitterSeed),
		proxiedByIndex: make([]atomic.Int64, len(cfg.Replicas)),
	}
	for _, u := range cfg.Replicas {
		rep := &replica{url: u, breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)}
		// Replicas start healthy: the first probe corrects within one
		// interval, and optimism just means one failed attempt that the
		// retry/failover path absorbs anyway.
		rep.healthy.Store(true)
		g.replicas = append(g.replicas, rep)
	}
	g.proxies = map[string]http.HandlerFunc{}
	labels := []string{"/healthz", "/metrics", unmatchedLabel}
	for _, rt := range server.Routes() {
		labels = append(labels, rt.Pattern)
	}
	for _, label := range labels {
		g.proxies[label] = g.metrics.Instrument(label, g.proxy)
	}
	g.registerMetrics()
	return g, nil
}

// Start launches one health-probe loop per replica; the loops exit when
// ctx is canceled. Close waits for them, so cancel ctx before Close.
func (g *Gateway) Start(ctx context.Context) {
	for _, rep := range g.replicas {
		g.probeWG.Add(1)
		go g.probeLoop(ctx, rep)
	}
}

// Close waits for the probe loops to exit. Cancel the Start context
// first; Close does not interrupt anything on its own.
func (g *Gateway) Close() error {
	g.probeWG.Wait()
	return nil
}

// probeLoop probes one replica's /healthz on the configured cadence and
// publishes the verdict on rep.healthy. An unhealthy replica is skipped
// by routing entirely; the breaker handles the finer-grained case of a
// replica that answers probes but fails requests.
func (g *Gateway) probeLoop(ctx context.Context, rep *replica) {
	defer g.probeWG.Done()
	g.probe(ctx, rep)
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.probe(ctx, rep)
		}
	}
}

// probe runs one health check. A probe cut short because ctx ended (the
// gateway is stopping) says nothing about the replica and publishes no
// verdict.
func (g *Gateway) probe(ctx context.Context, rep *replica) {
	pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.url+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := g.client.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if ctx.Err() != nil {
		return
	}
	rep.healthy.Store(ok)
	rep.probes.Add(1)
}

// reqClass is the routing classification of one request: the ring key
// it hashes on, whether retry/failover across replicas is safe, and
// whether the response cache may answer it.
type reqClass struct {
	key        string
	idempotent bool
	cached     bool
}

// classify derives a request's class from its endpoint-table row
// (server.Lookup): the row's ring key, and retry/failover and the
// response cache only when the row allows them and the request uses the
// row's own method. A path outside the table gets a body-digest key and
// one attempt; it is still proxied, so a replica running a newer version
// keeps serving it during a rolling upgrade.
func (g *Gateway) classify(r *http.Request, body []byte) reqClass {
	rt, _ := server.Lookup(r.Method, r.URL.Path)
	own := rt.Method == r.Method
	return reqClass{
		key:        rt.Key(r, body, g.cfg.Quick),
		idempotent: rt.Idempotent && own,
		cached:     rt.Cached && own,
	}
}

// ServeHTTP routes one request: gateway-local observability endpoints
// (GET or HEAD), then the proxy path with retry and failover.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	read := r.Method == http.MethodGet || r.Method == http.MethodHead
	switch {
	case read && r.URL.Path == "/healthz":
		g.handleHealthz(w, r)
		return
	case read && r.URL.Path == "/metrics":
		g.metrics.Handler(w, r)
		return
	}
	g.proxies[endpointLabel(r.URL.Path)](w, r)
}

// endpointLabel is a request path's metric label: its table row's
// pattern, the path itself for the gateway's own observability
// endpoints, and unmatchedLabel for everything else.
func endpointLabel(path string) string {
	if rt, ok := server.Lookup("", path); ok {
		return rt.Pattern
	}
	if path == "/healthz" || path == "/metrics" {
		return path
	}
	return unmatchedLabel
}

// proxy is the routed path: answer from the response cache when the
// class allows and the key is held, else pick the key's replica
// sequence, attempt with retry/backoff/failover as the class allows,
// then answer 503.
//
// A client that hangs up or times out ends the attempts at once. Its
// dead context fails every later forward, and charging that to the
// replicas would open healthy breakers and count retries and 503s that
// no replica caused.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request) {
	body, err := server.ReadBody(w, r)
	if err != nil {
		server.WriteError(w, server.ErrorStatus(err), err)
		return
	}
	class := g.classify(r, body)
	if class.cached {
		if st, ok := g.cache.Get(class.key); ok {
			g.cacheHits.Add(1)
			st.write(w)
			return
		}
	}
	seq := g.ring.sequence(class.key)
	ctx := r.Context()

	attempts := 0
	budget := 1
	if class.idempotent {
		budget = 1 + g.cfg.Retries
	}
	now := time.Now()
	for _, idx := range seq {
		if attempts >= budget {
			break
		}
		rep := g.replicas[idx]
		if !rep.healthy.Load() || !rep.breaker.allow(now) {
			continue
		}
		if attempts > 0 {
			g.backoff(ctx, attempts)
			if ctx.Err() != nil {
				rep.breaker.abandon()
				break
			}
			g.retries.Add(1)
		}
		attempts++
		resp, respBody, err := g.forward(r, rep, body)
		if err != nil && ctx.Err() != nil {
			rep.breaker.abandon()
			break
		}
		if err != nil || !acceptable(resp, respBody) {
			rep.breaker.failure(time.Now())
			now = time.Now()
			continue
		}
		rep.breaker.success()
		g.proxiedByIndex[idx].Add(1)
		g.relay(w, class, resp, respBody)
		return
	}
	if err := ctx.Err(); err != nil {
		server.WriteError(w, statusClientClosed, fmt.Errorf("gateway: client gave up: %w", err))
		return
	}
	g.unavailable.Add(1)
	server.WriteError(w, http.StatusServiceUnavailable,
		fmt.Errorf("%w: no replica available for this request", krak.ErrUnavailable))
}

// acceptable reports whether a proxied response is servable. 5xx means
// the replica failed. A 2xx must carry the Content-Digest of the bytes
// that arrived: a replica sends server.ContentDigest with every 2xx
// body, so a missing or different digest means the body was corrupted
// or truncated in flight, even when the damage left valid JSON. Either
// way the gateway moves on to the next replica rather than relay it.
func acceptable(resp *http.Response, body []byte) bool {
	if resp.StatusCode >= 500 {
		return false
	}
	return resp.StatusCode >= 300 || resp.Header.Get("Content-Digest") == server.ContentDigest(body)
}

// forward sends one attempt to one replica, preserving method, path,
// query, and content type. The response body is fully read here so the
// caller can check its digest before a byte reaches the client; a body
// past maxResponseBody fails the attempt by its length. A HEAD goes out
// as a GET, so the check runs over the real bytes (a HEAD answer
// declares a length it never sends); net/http then relays its header
// fields only.
func (g *Gateway) forward(r *http.Request, rep *replica, body []byte) (*http.Response, []byte, error) {
	url := rep.url + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	method := r.Method
	if method == http.MethodHead {
		method = http.MethodGet
	}
	req, err := http.NewRequestWithContext(r.Context(), method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var respBody []byte
	if n := resp.ContentLength; n >= 0 && n <= maxResponseBody {
		// A known length is read into one exact allocation; a body
		// cut short fails with io.ErrUnexpectedEOF, as ReadAll would.
		respBody = make([]byte, n)
		_, err = io.ReadFull(resp.Body, respBody)
	} else {
		respBody, err = io.ReadAll(io.LimitReader(resp.Body, maxResponseBody+1))
	}
	if err != nil {
		return nil, nil, err
	}
	if len(respBody) > maxResponseBody {
		return nil, nil, fmt.Errorf("gateway: replica response exceeds %d bytes", maxResponseBody)
	}
	return resp, respBody, nil
}

// relay sends an accepted replica response: the header fields the
// serving tier's clients depend on, Content-Digest among them so a
// client can check a body end to end, and the exact Content-Length of
// the bytes, so the client sees the framing the replica sent rather
// than chunks; hop-by-hop noise stays behind.
//
// On a cached route it adds the gateway's Cache-Status member, and it
// stores a 200 that the replica says it answered from its own LRU
// (server.CacheStatusHit). acceptable has already checked the body's
// digest.
func (g *Gateway) relay(w http.ResponseWriter, class reqClass, resp *http.Response, body []byte) {
	h := w.Header()
	for _, k := range []string{"Content-Type", "Content-Digest", "Retry-After", "Cache-Status"} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if class.cached {
		upstream := resp.Header.Get("Cache-Status")
		member := cacheStatusFwd
		if resp.StatusCode == http.StatusOK && upstream == server.CacheStatusHit {
			st := stored{body, h.Clone()}
			st.header.Set("Cache-Status", upstream+", "+cacheStatusHit)
			g.cache.Add(class.key, st)
			member += "; stored"
		}
		if upstream != "" {
			member = upstream + ", " + member
		}
		h.Set("Cache-Status", member)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// stored is a response the cache answers again: the bytes and the
// header fields they were relayed with, Cache-Status saying the gateway
// answered.
type stored struct {
	body   []byte
	header http.Header
}

// write sends st with status 200. Every hit shares the stored field
// values, which nothing modifies.
func (st stored) write(w http.ResponseWriter) {
	h := w.Header()
	//krakcheck:ignore maprange each field is assigned on its own, so the order cannot show
	for k, v := range st.header {
		h[k] = v
	}
	w.Write(st.body)
}

// backoff sleeps the jittered exponential delay before retry n (n ≥ 1):
// uniform in [0, min(base·2ⁿ⁻¹, cap)) — full jitter, so a thundering
// herd of retries decorrelates. Respects ctx cancellation.
func (g *Gateway) backoff(ctx context.Context, attempt int) {
	d := g.cfg.RetryBase << (attempt - 1)
	if d > g.cfg.RetryCap || d <= 0 {
		d = g.cfg.RetryCap
	}
	g.rngMu.Lock()
	frac := float64(g.rng.Next()>>11) / (1 << 53)
	g.rngMu.Unlock()
	jittered := time.Duration(frac * float64(d))
	if jittered <= 0 {
		return
	}
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// handleHealthz renders the gateway's liveness view; like the serving
// tier's, every number is read back out of the metrics registry so
// /healthz and /metrics cannot disagree.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	total := func(name string) int64 { return int64(g.metrics.Total(name)) }
	healthy := 0
	for _, rep := range g.replicas {
		if rep.healthy.Load() {
			healthy++
		}
	}
	server.WriteJSON(w, map[string]any{
		"status":           "ok",
		"uptime_s":         time.Since(g.start).Seconds(),
		"replicas":         len(g.replicas),
		"replicas_healthy": healthy,
		"requests":         total("krak_gateway_requests_total"),
		"retries":          total("krak_gateway_retries_total"),
		"unavailable":      total("krak_gateway_unavailable_total"),
	})
}

// registerMetrics declares the gateway's metric families.
func (g *Gateway) registerMetrics() {
	reg := g.metrics
	counter := metrics.Counter
	reg.AddFamily("krak_http_requests_total", "counter",
		"Proxied requests by endpoint and status code.", reg.CollectRequests)
	reg.AddFamily("krak_http_request_seconds", "histogram",
		"Proxied request latency by endpoint.", reg.CollectLatency)
	reg.AddScalar("krak_gateway_requests_total", "counter",
		"Requests received by the gateway (including observability endpoints).", counter(&g.requests))
	reg.AddScalar("krak_gateway_retries_total", "counter",
		"Retry attempts beyond each request's first.", counter(&g.retries))
	reg.AddScalar("krak_gateway_unavailable_total", "counter",
		"Requests no replica could serve (503).", counter(&g.unavailable))
	reg.AddScalar("krak_gateway_cache_hits_total", "counter",
		"Requests answered from the gateway's response cache, with no forward.", counter(&g.cacheHits))
	reg.AddScalar("krak_gateway_cache_entries", "gauge",
		"Response bodies the gateway's cache holds.", func() float64 { return float64(g.cache.Len()) })
	breakerSeries := make(map[string]func() float64, len(g.replicas))
	healthSeries := make(map[string]func() float64, len(g.replicas))
	proxiedSeries := make(map[string]func() float64, len(g.replicas))
	for i, rep := range g.replicas {
		rep := rep
		i := i
		breakerSeries[rep.url] = func() float64 { return float64(rep.breaker.value()) }
		healthSeries[rep.url] = func() float64 {
			if rep.healthy.Load() {
				return 1
			}
			return 0
		}
		proxiedSeries[rep.url] = func() float64 { return float64(g.proxiedByIndex[i].Load()) }
	}
	reg.AddLabeled("krak_gateway_breaker_state", "gauge",
		"Circuit-breaker state per replica (0 closed, 1 half-open, 2 open).", breakerSeries, "replica")
	reg.AddLabeled("krak_gateway_replica_healthy", "gauge",
		"Last health-probe verdict per replica (1 healthy).", healthSeries, "replica")
	reg.AddLabeled("krak_gateway_replica_proxied_total", "counter",
		"Requests served by each replica.", proxiedSeries, "replica")
	if g.faults != nil {
		reg.AddLabeled("krak_fault_injected_total", "counter",
			"Faults injected into the replica-facing client by the armed chaos plan, by kind.",
			g.faults.MetricSeries(), "kind")
	}
}
