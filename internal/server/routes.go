package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"krak/pkg/krak"
)

// Route is one row of the endpoint table: everything the server, the
// gateway, the metrics and the docs know about one endpoint, written
// once. The server routes, admits and instruments by it; the gateway
// labels, keys and retries by it; TestArchitectureEndpointTable holds
// docs/ARCHITECTURE.md to it.
type Route struct {
	// Method and Pattern form the ServeMux pattern; Pattern alone is the
	// metric endpoint label, so path parameters never mint new series.
	Method  string
	Pattern string

	// Class is the admission class the server runs the route under.
	Class string

	// Idempotent marks routes the gateway may retry and fail over.
	Idempotent bool

	// Key derives the gateway's ring key for a request on this route.
	Key RingKey

	handle func(*Server, http.ResponseWriter, *http.Request)
}

// RingKey derives a request's ring key from its method, path and body,
// given the gateway's Quick setting. Requests with equal keys land on
// the same replica, so equal content finds the replica whose caches
// already hold it.
type RingKey func(r *http.Request, body []byte, quick bool) string

// routes is the endpoint table. /healthz and /metrics are not in it:
// every tier serves its own, outside admission, instrumentation, fault
// injection and proxying.
var routes = []Route{
	{"POST", "/v1/predict", classLight, true,
		canonicalKey(func(r *krak.PredictRequest) *krak.MachineSpec { return &r.Machine }), (*Server).handlePredict},
	{"POST", "/v1/simulate", classLight, true,
		canonicalKey(func(r *krak.SimulateRequest) *krak.MachineSpec { return &r.Machine }), (*Server).handleSimulate},
	{"POST", "/v1/sweep", classHeavy, true, digestKey, (*Server).handleSweep},
	{"POST", "/v1/compare", classHeavy, true, digestKey, (*Server).handleCompare},
	{"POST", "/v1/calibrate", classHeavy, true, digestKey, (*Server).handleCalibrate},
	// Appends mutate the registry: one attempt only.
	{"POST", "/v1/calibrate/append", classHeavy, false, digestKey, (*Server).handleCalibrateAppend},
	{"GET", "/v1/machines", classLight, true, pathKey, (*Server).handleMachines},
	// Registry reads and writes anchor to the fingerprint, so a machine's
	// history lives on one replica.
	{"GET", "/v1/machines/{fingerprint}", classLight, true, fingerprintKey, (*Server).handleMachineHistory},
	{"POST", "/v1/machines/{fingerprint}", classLight, false, fingerprintKey, (*Server).handleMachineRegister},
	{"GET", "/v1/experiments", classLight, true, pathKey, (*Server).handleExperimentList},
	{"GET", "/v1/experiments/{id}", classLight, true, pathKey, (*Server).handleExperiment},
}

// Routes returns a copy of the endpoint table.
func Routes() []Route { return slices.Clone(routes) }

// Lookup returns the row whose pattern matches path, preferring one
// routed under method. A path routed only under other methods still
// gets a row, so it keeps its endpoint's label and ring key (the
// replica answers 405). When no row's pattern matches, ok is false and
// rt is the unmatched row: no method or pattern, keyed by body digest,
// not idempotent.
func Lookup(method, path string) (rt Route, ok bool) {
	rt = Route{Key: digestKey}
	for _, row := range routes {
		if !matches(row.Pattern, path) {
			continue
		}
		if row.Method == method {
			return row, true
		}
		if !ok {
			rt, ok = row, true
		}
	}
	return rt, ok
}

// matches reports whether path fits pattern segment by segment: literal
// segments equal, each {wildcard} exactly one non-empty segment — the
// subset of ServeMux patterns the table uses.
func matches(pattern, path string) bool {
	for {
		p, prest, pmore := strings.Cut(pattern, "/")
		q, qrest, qmore := strings.Cut(path, "/")
		if p != q && (!strings.HasPrefix(p, "{") || q == "") {
			return false
		}
		if !pmore || !qmore {
			return pmore == qmore
		}
		pattern, path = prest, qrest
	}
}

// pathKey keys a GET by its path: the path is its whole content.
func pathKey(r *http.Request, _ []byte, _ bool) string {
	return r.Method + " " + r.URL.Path
}

// fingerprintKey keys a registry request by the machine fingerprint
// that ends its path.
func fingerprintKey(r *http.Request, _ []byte, _ bool) string {
	p := r.URL.Path
	return "machines|" + p[strings.LastIndexByte(p, '/')+1:]
}

// digestKey keys a request that is a pure function of its body by a
// digest of that body.
func digestKey(r *http.Request, body []byte, _ bool) string {
	sum := sha256.Sum256(body)
	return fmt.Sprintf("%s|%x", r.URL.Path, sum[:8])
}

// canonicalKey keys a request by its wire type's CanonicalKey — the key
// the replica's response cache stores the body under — after resolving
// the machine exactly as the replica will. machine points at the
// request's MachineSpec. A body that does not decode or resolve falls
// back to its digest.
func canonicalKey[R interface{ CanonicalKey() string }](machine func(*R) *krak.MachineSpec) RingKey {
	return func(r *http.Request, body []byte, quick bool) string {
		var req R
		if json.Unmarshal(body, &req) == nil {
			ms := machine(&req)
			if resolved, err := ResolveSpec(*ms, quick); err == nil {
				*ms = resolved
				return req.CanonicalKey()
			}
		}
		return digestKey(r, body, quick)
	}
}
