package main

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// idHeader carries the generator's request id to the gateway span. The
// gateway does not forward it, so replica spans are linked by body digest
// and time containment instead.
const idHeader = "Krakbench-Id"

// Span layers: the client, the gateway, and replica i at layerReplica+i.
const (
	layerClient = iota
	layerGateway
	layerReplica
)

// span is one timed interval at a layer boundary, in nanoseconds since
// the recorder's epoch.
type span struct {
	layer      int
	id         int    // request id (client and gateway spans); -1 for replicas
	conn       int    // client connection (client spans)
	digest     uint64 // request-body digest prefix (gateway and replica spans)
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends. Handlers it wraps
// record nothing until start, so set-up traffic stays out of the trace.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (r *recorder) start() { r.on.Store(true) }

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

func bodyDigest(b []byte) uint64 {
	sum := sha256.Sum256(b)
	return binary.BigEndian.Uint64(sum[:8])
}

// wrap records a span around every POST h serves once the recorder has
// started (health probes and scrapes are GETs). The body is read up front
// (to digest it) and handed on unchanged.
func (r *recorder) wrap(layer int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || req.Method != http.MethodPost {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		// A failed read hands h a short body, which it rejects; the
		// request then fails and is counted like any other failure.
		body, _ := io.ReadAll(req.Body)
		req.Body = io.NopCloser(bytes.NewReader(body))
		id := -1
		if v := req.Header.Get(idHeader); v != "" {
			id, _ = strconv.Atoi(v)
		}
		h.ServeHTTP(w, req)
		r.add(span{layer: layer, id: id, digest: bodyDigest(body),
			start: r.since(start), end: r.since(time.Now())})
	})
}

// selfTime is parent's duration minus the part of it the children's
// union covers; overlapping children are not double-subtracted.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var covered, curS, curE int64
	for i, x := range iv {
		switch {
		case i == 0:
			curS, curE = x[0], x[1]
		case x[0] <= curE:
			curE = max(curE, x[1])
		default:
			covered += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if len(iv) > 0 {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// request is one client request's spans after linking.
type request struct {
	client   span
	gateway  *span
	replicas []span
}

// link groups spans by request: gateway spans join their client span by
// id; each replica span joins the earliest-starting gateway span with the
// same body digest that contains it in time, preferring one that has no
// replica child yet (identical requests may be in flight at once).
func link(spans []span) (reqs map[int]*request, unlinked int) {
	reqs = map[int]*request{}
	var gws, reps []span
	for _, s := range spans {
		switch {
		case s.layer == layerClient:
			reqs[s.id] = &request{client: s}
		case s.layer == layerGateway:
			gws = append(gws, s)
		default:
			reps = append(reps, s)
		}
	}
	byDigest := map[uint64][]*request{}
	for i := range gws {
		r := reqs[gws[i].id]
		if r == nil {
			unlinked++
			continue
		}
		r.gateway = &gws[i]
		byDigest[gws[i].digest] = append(byDigest[gws[i].digest], r)
	}
	for _, rs := range byDigest {
		slices.SortFunc(rs, func(a, b *request) int { return cmp.Compare(a.gateway.start, b.gateway.start) })
	}
	slices.SortFunc(reps, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	for _, rep := range reps {
		var pick *request
		for _, r := range byDigest[rep.digest] {
			if r.gateway.start <= rep.start && rep.end <= r.gateway.end {
				if len(r.replicas) == 0 {
					pick = r
					break
				}
				if pick == nil {
					pick = r
				}
			}
		}
		if pick == nil {
			unlinked++
			continue
		}
		pick.replicas = append(pick.replicas, rep)
	}
	return reqs, unlinked
}

// spanStats are the per-layer numbers the traced run derives from spans
// of the requests whose ids are in the set.
type spanStats struct {
	requests      int
	unlinked      int
	clientMeanUS  float64 // mean client span
	httpClientUS  float64 // mean client span minus gateway span
	gatewaySelfUS float64 // mean gateway span minus its replica children
	busyMeanUS    float64 // mean replica span (children of linked requests)
	busy          []time.Duration
}

func analyzeSpans(spans []span, ids map[int]bool) spanStats {
	reqs, unlinked := link(spans)
	st := spanStats{unlinked: unlinked}
	var client, hc, self, busy []float64
	for id, r := range reqs {
		if !ids[id] || r.gateway == nil || len(r.replicas) == 0 {
			continue
		}
		st.requests++
		client = append(client, float64(r.client.dur())/1e3)
		hc = append(hc, float64(r.client.dur()-r.gateway.dur())/1e3)
		self = append(self, float64(selfTime(*r.gateway, r.replicas))/1e3)
		var b int64
		for _, rep := range r.replicas {
			b += rep.dur()
			st.busy = append(st.busy, time.Duration(rep.dur()))
		}
		busy = append(busy, float64(b)/1e3)
	}
	st.clientMeanUS, st.httpClientUS, st.gatewaySelfUS, st.busyMeanUS = mean(client), mean(hc), mean(self), mean(busy)
	slices.Sort(st.busy)
	return st
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open. Each client
// connection is one track; a request's gateway and replica spans sit on
// its connection's track, nested under the client span.
func writeChromeTrace(path string, spans []span) error {
	reqs, _ := link(spans)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(name string, s span, tid, id int) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		enc.Encode(event{Name: name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: tid, Args: map[string]int{"id": id}})
	}
	ids := make([]int, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		r := reqs[id]
		emit("client", r.client, r.client.conn, id)
		if r.gateway != nil {
			emit("gateway", *r.gateway, r.client.conn, id)
		}
		for _, rep := range r.replicas {
			emit(fmt.Sprintf("replica-%d", rep.layer-layerReplica), rep, r.client.conn, id)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
