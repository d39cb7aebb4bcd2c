// Package server is the serving subsystem: an http.Handler exposing the
// performance model over JSON endpoints, built directly on the
// repository's concurrent engine. It turns the one-shot CLI workflow
// into a long-running traffic-serving system. Its endpoints are the rows
// of one table (routes.go): each row's method, path pattern, admission
// class, metric label, gateway ring key and handler, written once and
// read by the server, the gateway and the docs test. /healthz (liveness
// plus serving counters, a view over /metrics) and /metrics (Prometheus
// text format) sit outside the table.
//
// Every /v1 route runs behind admission control: endpoint classes (light
// cached reads vs heavy pool-occupying computes) each have a concurrency
// limit and a bounded wait queue, and callers past both get 429 with a
// Retry-After instead of unbounded queueing (see admission.go). The
// machine registry lives on disk, in the cache directory (krak serve
// -cache-dir) or else a private temporary one: it keeps no copy in
// memory, so restarts and servers sharing the directory serve one
// history (see registry.go). Every other cache lives in memory only.
//
// Machines are identified by the content fingerprint of their normalized
// MachineSpec, so file-defined and calibrated machines (custom networks,
// compute scales, specs arriving as embedded machine files) share the
// same capped machine cache as the interconnect presets.
//
// Request flow: a predict/simulate/experiment request is normalized to a
// canonical key and looked up in a size-bounded engine.Cache of fully
// rendered response bodies; concurrent misses for the same key coalesce
// onto one fill, so one computation feeds every duplicate in flight, and
// a failed fill is not kept. A miss evaluates inline in that fill, on the
// request's own goroutine, with concurrency bounded by the endpoint's
// admission class. The machines sit in an unbounded engine.Cache that
// refuses new keys at maxMachines, and are shared across requests, so
// decks, partitions, and calibrations stay warm in their own caches (the
// same engine.Cache type) across the whole request stream.
//
// Responses are byte-identical to the CLI: /v1/predict for a scenario
// returns exactly the bytes `krak predict --json` prints for the same
// flags, down to the trailing newline (the integration test and the CI
// smoke job both diff the two).
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"krak/internal/artifacts"
	"krak/internal/engine"
	"krak/internal/faultinject"
	"krak/internal/metrics"
	"krak/pkg/krak"
)

// Config sizes a Server.
type Config struct {
	// Parallel bounds the worker pools every machine and the compare
	// fan-out dispatch on; 0 means as wide as the hardware allows.
	Parallel int

	// CacheSize bounds the rendered-response LRU; 0 means 1024 entries.
	CacheSize int

	// Quick applies the CLI's -quick (scaled-down decks and calibrations)
	// to every request's machine, whatever the request says — the mode
	// the CI smoke job serves in.
	Quick bool

	// CacheDir is the directory the machine registry lives in: each
	// version of a registered history is an immutable entry there, read
	// by restarts and by every server sharing the directory. "" means a
	// private temporary directory, made on the first registration and
	// removed by Close.
	CacheDir string

	// LightLimit/LightQueue size the light admission class (cached reads:
	// predict, simulate, experiments, machines): concurrent in-flight
	// requests and the bounded wait queue behind them. 0 means
	// the defaults (256/1024); a negative limit disables the class's
	// limiter; a negative queue means no queue (refuse once slots fill).
	LightLimit int
	LightQueue int

	// HeavyLimit/HeavyQueue size the heavy admission class (sweep,
	// compare, calibrate — endpoints that occupy the worker pool).
	// 0 means the defaults (4/16); negatives as for the light class.
	HeavyLimit int
	HeavyQueue int

	// RequestTimeout bounds how long a heavy request may run once
	// admitted; 0 means no timeout.
	RequestTimeout time.Duration

	// Faults, when non-nil, wraps every /v1 route in the deterministic
	// fault-injection middleware — chaos drills only. The CLI refuses to
	// build one unless -allow-faults is set, so it can never ship on by
	// accident; a nil injector is a no-op.
	Faults *faultinject.Injector
}

// maxMachines caps how many distinct machine configurations the server
// memoizes. Machines hold artifact caches (decks, partitions,
// calibrations) and live forever, so an open-ended stream of novel
// (seed, repeats, ...) combinations must saturate rather than exhaust
// memory; past the cap, requests for new configurations are refused with
// 503 while known ones keep serving.
const maxMachines = 64

// Server is the HTTP serving layer. Build with New; it is safe for
// concurrent use by any number of requests.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// machines memoizes Machine instances per normalized MachineSpec in a
	// single-flight cache, so every request against the same platform
	// shares one set of artifact caches.
	machines engine.Cache[string, *krak.Machine]

	// artifacts is the cross-machine artifact cache: every machine the
	// server builds shares it, so requests against different platforms
	// (networks, compute scales) still share decks, graphs, and
	// partitions — only calibrations stay per-machine.
	artifacts *krak.SharedArtifacts

	// responses is the size-bounded LRU of rendered response bodies,
	// keyed by canonical request, each stored with its Content-Digest so
	// a hit hashes nothing. Its single-flight Do coalesces duplicate
	// in-flight requests.
	responses *engine.Cache[string, digested]

	pool      *engine.Pool
	metrics   *metrics.Registry
	admission *admission

	// machineReg is the versioned fingerprint → fitted-machine history
	// store behind GET/POST /v1/machines/{fingerprint} and the append
	// endpoint (see registry.go).
	machineReg machineRegistry

	// closed is set by Close; a closed server answers only 503s.
	closed atomic.Bool

	requests         atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	cacheCoalesced   atomic.Int64
	machinesRejected atomic.Int64
	driftFlagged     atomic.Int64
}

// New builds a Server from the config. It touches the filesystem only
// for a configured cache directory, and fails only when that cannot be
// created.
func New(cfg Config) (*Server, error) {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	s := &Server{
		cfg:       cfg,
		start:     time.Now(),
		responses: engine.NewCache[string, digested](cfg.CacheSize),
		pool:      engine.New(cfg.Parallel),
		artifacts: krak.NewSharedArtifacts(),
		metrics:   metrics.NewRegistry(),
		admission: newAdmission(cfg),
	}
	if cfg.CacheDir != "" {
		dc, err := artifacts.OpenDiskCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.machineReg.disk.Store(dc)
	}
	s.registerMetrics()
	mux := http.NewServeMux()
	// Observability endpoints are neither instrumented nor admission
	// controlled: they must answer exactly when the server is saturated,
	// and a scrape counting itself would make the counters self-exciting.
	// They also bypass fault injection — a chaos drill that blinded the
	// observer would be unmeasurable.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.metrics.Handler)
	for _, rt := range routes {
		h := s.withAdmission(rt.Class, func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) })
		if cfg.Faults != nil {
			h = cfg.Faults.Middleware(h)
		}
		mux.HandleFunc(rt.Method+" "+rt.Pattern, s.metrics.Instrument(rt.Pattern, h))
	}
	s.mux = mux
	return s, nil
}

// registerMetrics declares every metric family /metrics exposes. All of
// them read the server's live counters at scrape time — the same sources
// /healthz renders — so the two views cannot drift.
func (s *Server) registerMetrics() {
	reg := s.metrics
	counter := metrics.Counter
	reg.AddFamily("krak_http_requests_total", "counter",
		"HTTP requests served, by route pattern and status code.", reg.CollectRequests)
	reg.AddFamily("krak_http_request_seconds", "histogram",
		"HTTP request latency in seconds, by route pattern.", reg.CollectLatency)
	reg.AddScalar("krak_requests_total", "counter",
		"All HTTP requests received, matched or not.", counter(&s.requests))
	reg.AddScalar("krak_uptime_seconds", "gauge",
		"Seconds since the server started.", func() float64 { return time.Since(s.start).Seconds() })
	reg.AddScalar("krak_parallelism", "gauge",
		"Worker-pool width machines and compares dispatch on.",
		func() float64 { return float64(s.pool.Workers()) })
	reg.AddScalar("krak_response_cache_hits_total", "counter",
		"Responses served from the rendered-response LRU.", counter(&s.cacheHits))
	reg.AddScalar("krak_response_cache_misses_total", "counter",
		"Responses computed because the LRU had no entry.", counter(&s.cacheMisses))
	reg.AddScalar("krak_response_cache_coalesced_total", "counter",
		"Responses served by joining another request's in-flight fill.", counter(&s.cacheCoalesced))
	reg.AddScalar("krak_response_cache_entries", "gauge",
		"Rendered responses currently cached.", func() float64 { return float64(s.responses.Len()) })
	reg.AddScalar("krak_response_cache_capacity", "gauge",
		"Rendered-response LRU capacity.", func() float64 { return float64(s.responses.Cap()) })
	reg.AddScalar("krak_machines", "gauge",
		"Distinct machine configurations memoized.", func() float64 { return float64(s.machines.Len()) })
	reg.AddScalar("krak_machines_rejected_total", "counter",
		"Requests refused because the machine cap was reached.", counter(&s.machinesRejected))
	limGauge := func(fn func(*engine.Limiter) int) map[string]func() float64 {
		return map[string]func() float64{
			classLight: func() float64 { return float64(fn(s.admission.light)) },
			classHeavy: func() float64 { return float64(fn(s.admission.heavy)) },
		}
	}
	reg.AddLabeled("krak_admission_inflight", "gauge",
		"Admitted requests currently in flight, by endpoint class.",
		limGauge((*engine.Limiter).InFlight), "class")
	reg.AddLabeled("krak_admission_waiting", "gauge",
		"Requests waiting in the bounded admission queue, by endpoint class.",
		limGauge((*engine.Limiter).Waiting), "class")
	reg.AddLabeled("krak_admission_rejected_total", "counter",
		"Requests refused by admission control, by endpoint class.",
		map[string]func() float64{
			classLight: counter(&s.admission.rejectedLight),
			classHeavy: counter(&s.admission.rejectedHeavy),
		}, "class")
	reg.AddScalar("krak_registered_machines", "gauge",
		"Distinct machine fingerprints in the calibration registry.",
		func() float64 { return float64(s.machineReg.len()) })
	reg.AddScalar("krak_calib_drift_flagged_total", "counter",
		"Appended calibrations whose fresh residuals left the stored fit's stderr band.",
		counter(&s.driftFlagged))
	reg.AddScalar("krak_partition_computes_total", "counter",
		"Partition vectors computed from scratch (the artifact cache had none).",
		func() float64 { return float64(s.artifacts.Stats().PartitionComputes) })
	// The registry is the one disk tier; its series keeps the tier label.
	reg.AddLabeled("krak_disk_cache_corrupt_total", "counter",
		"Disk-cache entries discarded as corrupt or version-skewed, by tier.",
		map[string]func() float64{"registry": s.machineReg.corrupt}, "tier")
	if s.cfg.Faults != nil {
		reg.AddLabeled("krak_fault_injected_total", "counter",
			"Faults injected by the armed chaos plan, by kind.",
			s.cfg.Faults.MetricSeries(), "kind")
	}
}

// ServeHTTP implements http.Handler. After Close the server answers
// only 503s: the listener should already be drained by then, so any
// straggler is a caller racing shutdown, and an honest refusal with a
// Retry-After beats dispatching onto torn-down machinery.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.closed.Load() {
		WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("%w: server is shutting down", krak.ErrUnavailable))
		return
	}
	s.mux.ServeHTTP(w, r)
}

// Close marks the server closed after the HTTP listener has drained
// (call it after http.Server.Shutdown); from then on every request gets
// a 503. It removes the registry's private directory, if the server made
// one. Idempotent; safe on a server that never served a request.
func (s *Server) Close() error {
	s.closed.Store(true)
	if dir := s.machineReg.temp.Load(); dir != nil {
		return os.RemoveAll(*dir)
	}
	return nil
}

// maxBody bounds request bodies at the server and the gateway alike;
// the wire types are a few hundred bytes.
const maxBody = 1 << 20

// badRequest marks an error as the client's malformed request (400)
// without changing its message.
type badRequest struct{ error }

func (e badRequest) Unwrap() error { return e.error }

// ReadBody reads a request body of at most maxBody bytes. Its
// errors are the client's: ErrorStatus maps an oversized body to 413
// and any other failure to 400, at the server and the gateway alike.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		return nil, badRequest{fmt.Errorf("reading request: %w", err)}
	}
	return body, nil
}

// decode reads a strict JSON body into v (see decodeStrict).
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := ReadBody(w, r)
	if err != nil {
		return err
	}
	return decodeStrict(body, v)
}

// decodeStrict decodes body into v: unknown fields and trailing garbage
// are errors, exactly what the fuzz harness pounds on. It is the one
// decode a request body passes on both tiers: the handlers' and the
// gateway's canonical ring keys, so a body the replica refuses never
// takes the key of one it answers.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest{fmt.Errorf("decoding request: %w", err)}
	}
	// Only white space may follow. More would report false before a
	// stray closing } or ], so the next token must be the end.
	if _, err := dec.Token(); err != io.EOF {
		return badRequest{errors.New("decoding request: trailing data after JSON body")}
	}
	return nil
}

// ErrorStatus maps an error to its HTTP status: typed krak errors to
// theirs, request-body failures to 413 or 400, anything else to 500.
func ErrorStatus(err error) int {
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, new(badRequest)):
		return http.StatusBadRequest
	case errors.Is(err, errTooManyMachines):
		// The machine cap can surface through cached fills (compare builds
		// its machines inside one), not only through machineFor call sites.
		return http.StatusServiceUnavailable
	case errors.Is(err, errRegistryFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, krak.ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, errUnknownMachine):
		return http.StatusNotFound
	case errors.Is(err, errVersionTaken):
		return http.StatusConflict
	case errors.Is(err, krak.ErrUnknownExperiment):
		return http.StatusNotFound
	case errors.Is(err, artifacts.ErrBadName),
		errors.Is(err, krak.ErrUnknownDeck),
		errors.Is(err, krak.ErrBadPE),
		errors.Is(err, krak.ErrUnknownModel),
		errors.Is(err, krak.ErrUnknownPartitioner),
		errors.Is(err, krak.ErrUnknownInterconnect),
		errors.Is(err, krak.ErrBadOption),
		errors.Is(err, krak.ErrBadDeckSpec),
		errors.Is(err, krak.ErrBadMachineSpec),
		errors.Is(err, krak.ErrCalibration):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// WriteError emits the JSON error envelope, for the server and the
// gateway alike. Transient refusals — 429s, and 503s like the
// machine-configuration cap — all carry a Retry-After hint, not just
// the admission path: the condition clears on its own, and the header
// is what tells a well-behaved client to back off instead of abandoning
// the request.
func WriteError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// WriteJSON renders v with krak.RenderJSON, the bytes the CLI's --json
// prints, and writes it.
func WriteJSON(w http.ResponseWriter, v any) {
	body, err := krak.RenderJSON(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, body, ContentDigest(body))
}

// jsonType is the Content-Type of every body a replica renders, shared
// by every response and never modified.
var jsonType = []string{"application/json"}

// writeBody sends a 2xx body, the one way every such body leaves a
// replica: with its exact length, so neither side frames it in chunks,
// and its Content-Digest, which the gateway checks before relaying.
func writeBody(w http.ResponseWriter, body []byte, digest string) {
	h := w.Header()
	h["Content-Type"] = jsonType
	h.Set("Content-Length", strconv.Itoa(len(body)))
	h.Set("Content-Digest", digest)
	w.Write(body)
}

// digested is a response-LRU entry: a rendered body and its
// Content-Digest, hashed once per fill rather than on every hit.
type digested struct {
	body   []byte
	digest string
}

// CacheStatusHit is the RFC 9211 Cache-Status a replica sends with a
// body its response LRU already held when the request arrived. The
// gateway stores a body only on this value, so a key asked once never
// takes gateway memory.
const CacheStatusHit = "krak-serve; hit"

// cacheStatus is the Cache-Status field value of each response-LRU
// outcome: a miss went forward to the computation, and a coalesced
// request was collapsed onto another request's.
var cacheStatus = [...][]string{
	engine.Miss:      {"krak-serve; fwd=miss"},
	engine.Hit:       {CacheStatusHit},
	engine.Coalesced: {"krak-serve; fwd=miss; collapsed"},
}

// ContentDigest is the RFC 9530 Content-Digest field value of body: its
// SHA-256 as a structured-field byte sequence, "sha-256=:<base64>:".
// A replica sends it with every 2xx body (writeBody), and the gateway
// recomputes it over the bytes it received, so a body changed in
// flight, even into other valid JSON, is never relayed.
func ContentDigest(body []byte) string {
	const prefix = "sha-256=:"
	sum := sha256.Sum256(body)
	var field [len(prefix) + 44 + 1]byte // 44: base64 of 32 bytes
	copy(field[:], prefix)
	base64.StdEncoding.Encode(field[len(prefix):], sum[:])
	field[len(field)-1] = ':'
	return string(field[:])
}

// rendered renders a computation's result with krak.RenderJSON, passing
// its error through: the last step of every cached fill.
func rendered[T any](v T, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return krak.RenderJSON(v)
}

// ResolveSpec expands an embedded machine file (the wire MachineSpec's
// file field), applies a tier-level Quick default, and normalizes —
// after it, the spec's Fingerprint is the machine's serving identity.
// The gateway resolves through it too, so its ring keys match the keys
// the replicas cache under.
func ResolveSpec(ms krak.MachineSpec, quick bool) (krak.MachineSpec, error) {
	r, err := ms.Resolved()
	if err != nil {
		return ms, err
	}
	if quick {
		r.Quick = true
	}
	return r.Normalized(), nil
}

// bindMachine is the prologue of every handler whose body names one
// machine: strict decode into req, wire defaults, the spec at machine
// (a field of req) resolved against the server's Quick, the request
// validated by check, and only then the shared machine — so an invalid
// request never consumes the machine cap. On failure it writes the
// error response and returns nil.
func bindMachine[R interface{ Normalized() R }](s *Server, w http.ResponseWriter, r *http.Request,
	req *R, machine *krak.MachineSpec, check func() error) *krak.Machine {
	err := decode(w, r, req)
	if err == nil {
		*req = (*req).Normalized()
		*machine, err = ResolveSpec(*machine, s.cfg.Quick)
	}
	if err == nil {
		err = check()
	}
	var m *krak.Machine
	if err == nil {
		m, err = s.machineFor(*machine)
	}
	if err != nil {
		WriteError(w, ErrorStatus(err), err)
	}
	return m
}

// errTooManyMachines is the 503 the machine cap returns.
var errTooManyMachines = errors.New("server: too many distinct machine configurations; retry with a known one")

// machineFor returns the shared Machine for a normalized spec, building
// it on first use. All requests against the same platform share the
// machine and therefore its single-flight artifact caches.
//
// The cap check and the insert happen atomically inside GetBounded: a
// separate Len probe followed by Do would let a burst of novel specs race
// past the cap, each seeing Len just under the limit before any of them
// inserted. Known configurations keep serving at the cap. An invalid spec
// fails inside the fill, and a failed fill is not kept, so a stream of
// bad requests never consumes the cap.
func (s *Server) machineFor(ms krak.MachineSpec) (*krak.Machine, error) {
	m, _, err := s.machines.GetBounded(ms.Fingerprint(), maxMachines, func() (*krak.Machine, error) {
		opts := ms.Options()
		if s.cfg.Parallel > 0 {
			opts = append(opts, krak.WithParallelism(s.cfg.Parallel))
		}
		opts = append(opts, krak.WithSharedArtifacts(s.artifacts))
		return krak.NewMachine(opts...)
	})
	if errors.Is(err, engine.ErrCacheFull) {
		s.machinesRejected.Add(1)
		return nil, errTooManyMachines
	}
	return m, err
}

// handleHealthz renders the liveness view: every number is read back out
// of the metrics registry (by family name, summing labeled series), so
// /healthz and /metrics are two renderings of the same counters and the
// agreement test can diff them.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	total := func(name string) int64 { return int64(s.metrics.Total(name)) }
	WriteJSON(w, map[string]any{
		"status":             "ok",
		"uptime_s":           time.Since(s.start).Seconds(),
		"requests":           total("krak_requests_total"),
		"cache_hits":         total("krak_response_cache_hits_total"),
		"cache_misses":       total("krak_response_cache_misses_total"),
		"cache_coalesced":    total("krak_response_cache_coalesced_total"),
		"cache_len":          total("krak_response_cache_entries"),
		"cache_cap":          total("krak_response_cache_capacity"),
		"machines":           total("krak_machines"),
		"parallelism":        total("krak_parallelism"),
		"admission_rejected": total("krak_admission_rejected_total"),
		"registered":         total("krak_registered_machines"),
		"drift_flagged":      total("krak_calib_drift_flagged_total"),
		"partition_computes": total("krak_partition_computes_total"),
	})
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, krak.ListMachines())
}

// cachedBody looks key up in the rendered-response LRU, filling it on a
// miss; duplicate misses in flight share the one computation, and each
// fill hashes its body once. The LRU reports each request's
// outcome distinctly, in the counters and in the response's
// Cache-Status: a hit found the entry filled, a coalesced request joined
// another request's in-flight fill (it waited, it did not compute, and
// it was not served from the finished cache), and a miss ran the fill
// itself.
func (s *Server) cachedBody(w http.ResponseWriter, key string, fill func() ([]byte, error)) {
	d, outcome, err := s.responses.Do(key, func() (digested, error) {
		body, err := fill()
		if err != nil {
			return digested{}, err
		}
		return digested{body, ContentDigest(body)}, nil
	})
	if err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	switch outcome {
	case engine.Hit:
		s.cacheHits.Add(1)
	case engine.Coalesced:
		s.cacheCoalesced.Add(1)
	default:
		s.cacheMisses.Add(1)
	}
	w.Header()["Cache-Status"] = cacheStatus[outcome]
	writeBody(w, d.body, d.digest)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req krak.PredictRequest
	var sc *krak.Scenario
	m := bindMachine(s, w, r, &req, &req.Machine, func() (err error) {
		sc, err = req.Scenario()
		return err
	})
	if m == nil {
		return
	}
	// The fill takes no context: other requests may be coalesced onto it,
	// so one client disconnecting must not fail the strangers sharing the
	// computation (predictions are short and the rendered result is
	// cacheable regardless).
	s.cachedBody(w, req.CanonicalKey(), func() ([]byte, error) {
		sess, err := krak.NewSession(m, sc)
		if err != nil {
			return nil, err
		}
		return rendered(sess.Predict())
	})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req krak.SimulateRequest
	var sc *krak.Scenario
	m := bindMachine(s, w, r, &req, &req.Machine, func() (err error) {
		sc, err = req.Scenario()
		return err
	})
	if m == nil {
		return
	}
	s.cachedBody(w, req.CanonicalKey(), func() ([]byte, error) {
		sess, err := krak.NewSession(m, sc)
		if err != nil {
			return nil, err
		}
		return rendered(sess.Simulate())
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req krak.SweepRequest
	var op krak.SweepOp
	var grid []*krak.Scenario
	m := bindMachine(s, w, r, &req, &req.Machine, func() (err error) {
		op, grid, err = req.Grid()
		return err
	})
	if m == nil {
		return
	}
	base, err := krak.NewScenario()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	sess, err := krak.NewSession(m, base)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	// Sweeps are not response-cached: their wall/work timing fields
	// legitimately vary run to run, and serving stale timings would
	// misreport the realized speedup. The grid points still share the
	// machine's warm artifact caches.
	sr, err := sess.Sweep(r.Context(), op, grid)
	if err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	WriteJSON(w, sr)
}

// handleCalibrate fits machine parameters to the request's dataset
// (textual measurement file, structured observations, or self-generated
// runs on the request's machine) and returns a CalibrationResult whose
// body is byte-identical to `krak calibrate --json` for the same inputs.
// Calibration is deterministic for a fixed machine and dataset, so
// responses are cached like predictions, keyed by a content hash of the
// canonical request.
func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	var req krak.CalibrateRequest
	var sc *krak.Scenario
	m := bindMachine(s, w, r, &req, &req.Machine, func() (err error) {
		sc, err = req.Scenario()
		return err
	})
	if m == nil {
		return
	}
	canon, err := json.Marshal(req)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	key := fmt.Sprintf("calibrate|%x", sha256.Sum256(canon))
	// Like predict fills, the computation runs detached from the request
	// context: coalesced strangers must not be failed by one client
	// disconnecting, and the result is cacheable regardless.
	s.cachedBody(w, key, func() ([]byte, error) {
		sess, err := krak.NewSession(m, sc)
		if err != nil {
			return nil, err
		}
		//krakcheck:ignore ctxflow deliberate detach: coalesced fill shared by other requests must survive this client disconnecting
		ds, err := req.Materialize(context.Background(), sess)
		if err != nil {
			return nil, err
		}
		//krakcheck:ignore ctxflow same deliberate detach as the Materialize call above
		return rendered(sess.Calibrate(context.Background(), ds, krak.CalibrateOptions{Folds: req.Folds, Form: req.Form}))
	})
}

// handleMachineHistory serves a registered machine's calibration
// history: the exact bytes stored for its newest version, by this
// server, a sibling on the same directory, or before a restart — no
// refitting.
func (s *Server) handleMachineHistory(w http.ResponseWriter, r *http.Request) {
	body, err := s.machineReg.history(r.PathValue("fingerprint"))
	if err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	writeBody(w, body, ContentDigest(body))
}

// handleMachineRegister records a calibration result as the version
// after the newest one it reads and returns the updated history (409 if
// another registration stored that version first). The
// result must carry the fingerprint it is being registered under —
// registration is claiming "this calibration described that machine".
func (s *Server) handleMachineRegister(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	var req krak.RegisterMachineRequest
	if err := decode(w, r, &req); err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	if req.Result == nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("register request carries no calibration result"))
		return
	}
	if req.Result.FittedFingerprint != fp {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("result's fitted fingerprint %s does not match path fingerprint %s",
				req.Result.FittedFingerprint, fp))
		return
	}
	body, err := s.machineReg.register(fp, req.Result, req.Dataset)
	if err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	writeBody(w, body, ContentDigest(body))
}

// handleCalibrateAppend folds fresh measurements into a registered
// machine's stored dataset: the stored fit is checked for drift against
// the fresh data, the merged dataset is refitted, and the refit is
// registered as the fingerprint's next version. The response body is
// byte-identical to `krak calibrate -data <stored> -append <fresh>
// --json` for the same inputs. Appends mutate the registry, so they are
// never response-cached.
func (s *Server) handleCalibrateAppend(w http.ResponseWriter, r *http.Request) {
	var req krak.AppendRequest
	var sc *krak.Scenario
	m := bindMachine(s, w, r, &req, &req.Machine, func() (err error) {
		sc, err = req.Scenario()
		return err
	})
	if m == nil {
		return
	}
	h, err := s.machineReg.read(req.Fingerprint)
	if err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	ver := h.Versions[len(h.Versions)-1]
	if ver.Dataset == "" {
		WriteError(w, http.StatusConflict,
			fmt.Errorf("version %d of %s was registered without its dataset; appends need it to refit",
				ver.Version, req.Fingerprint))
		return
	}
	base, err := krak.ParseDataset([]byte(ver.Dataset))
	if err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	fresh, err := req.Fresh()
	if err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	sess, err := krak.NewSession(m, sc)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	cr, err := sess.CalibrateAppend(r.Context(), base, fresh, krak.CalibrateOptions{Folds: req.Folds, Form: req.Form})
	if err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	if cr.Drift != nil && cr.Drift.Flagged {
		s.driftFlagged.Add(1)
	}
	merged := &krak.Dataset{Name: base.Name}
	merged.Observations = append(merged.Observations, base.Observations...)
	merged.Observations = append(merged.Observations, fresh.Observations...)
	// Committed against the history the refit read: if another write
	// stored a newer version meanwhile, this one answers 409 rather than
	// dropping that write's observations.
	if _, err := s.machineReg.commit(req.Fingerprint, h, cr, string(merged.Format())); err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	WriteJSON(w, cr)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, krak.ListExperiments())
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ms, err := machineSpecFromQuery(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if ms, err = ResolveSpec(ms, s.cfg.Quick); err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	m, err := s.machineFor(ms)
	if err != nil {
		WriteError(w, ErrorStatus(err), err)
		return
	}
	key := fmt.Sprintf("experiment|%s|%s", id, ms.Fingerprint())
	s.cachedBody(w, key, func() ([]byte, error) {
		sc, err := krak.NewScenario()
		if err != nil {
			return nil, err
		}
		sess, err := krak.NewSession(m, sc)
		if err != nil {
			return nil, err
		}
		return rendered(sess.Experiment(id))
	})
}

// machineSpecFromQuery reads the optional machine parameters GET
// endpoints accept: ?interconnect=, ?seed=, ?repeats=, ?quick=.
func machineSpecFromQuery(r *http.Request) (krak.MachineSpec, error) {
	var ms krak.MachineSpec
	q := r.URL.Query()
	ms.Interconnect = q.Get("interconnect")
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return ms, fmt.Errorf("bad seed %q: %v", v, err)
		}
		ms.Seed = n
	}
	if v := q.Get("repeats"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return ms, fmt.Errorf("bad repeats %q: %v", v, err)
		}
		ms.Repeats = n
	}
	if v := q.Get("quick"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return ms, fmt.Errorf("bad quick %q: %v", v, err)
		}
		ms.Quick = b
	}
	return ms, nil
}
