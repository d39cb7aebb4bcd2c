package gateway

// The chaos suite is the tentpole's proof obligation: a three-replica
// in-process fleet where one replica is armed with a deterministic
// fault plan and another is killed mid-soak, and the gateway still
// loses zero idempotent requests while every served body stays
// byte-identical to a single-node reference. A second test pins the
// fault layer's reproducibility end to end: the same seed over the same
// request stream injects exactly the same fault multiset, run to run.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"krak/internal/faultinject"
	"krak/internal/server"
)

// chaosPlan corrupts a fifth of responses and fails another ~15%
// outright — far nastier than any real deploy, which is the point.
const chaosPlan = `plan chaos-soak
seed 7
error-rate 0.15
error-status 500
corrupt-rate 0.2
`

// chaosKeys is how many predict keys each soak round sends. Every round
// sends fresh keys, each once, so none becomes a gateway cache hit and
// every request of every round reaches a replica: the kill and the
// armed fault plan act on live replica traffic to the end.
const chaosKeys = 6

// chaosPE is the PE count of key i in a soak round.
func chaosPE(round, i int) int { return 2 + round*chaosKeys + i }

// chaosHandler builds a real quick-mode serving replica, optionally
// armed with a fault injector.
func chaosHandler(t *testing.T, inj *faultinject.Injector) *server.Server {
	t.Helper()
	h, err := server.New(server.Config{Quick: true, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// chaosReplica serves a chaosHandler behind an httptest listener.
func chaosReplica(t *testing.T, inj *faultinject.Injector) (*httptest.Server, *server.Server) {
	t.Helper()
	h := chaosHandler(t, inj)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, h
}

// referenceBodies renders the ground truth of rounds soak rounds once on
// a clean single node, by PE count.
func referenceBodies(t *testing.T, rounds int) map[int][]byte {
	t.Helper()
	ts, _ := chaosReplica(t, nil)
	ref := make(map[int][]byte, rounds*chaosKeys)
	for pe := chaosPE(0, 0); pe < chaosPE(rounds, 0); pe++ {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(predictBody(pe)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference pe %d: status %d", pe, resp.StatusCode)
		}
		ref[pe] = buf.Bytes()
	}
	return ref
}

func newChaosInjector(t *testing.T) *faultinject.Injector {
	t.Helper()
	plan, err := faultinject.ParseFaultPlan([]byte(chaosPlan))
	if err != nil {
		t.Fatal(err)
	}
	return faultinject.New(plan)
}

// corruptDrawn reports which PE counts' predict requests the chaos plan
// corrupts on their first draw. Fault decisions are a pure function of
// the plan's seed, the request's content and its occurrence number, so
// a scratch injector run over the bodies once draws exactly what the
// armed replica will for a key it sees once.
func corruptDrawn(t *testing.T, pes []int) map[int]bool {
	t.Helper()
	probe := newChaosInjector(t)
	h := probe.Middleware(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "1") })
	drawn := map[int]bool{}
	for _, pe := range pes {
		before := probe.Totals()[faultinject.KindCorrupt]
		h(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(predictBody(pe))))
		drawn[pe] = probe.Totals()[faultinject.KindCorrupt] > before
	}
	return drawn
}

// TestChaosKillAndCorruptMidSoak: one replica injects errors and corrupt
// bodies the whole time, another is killed a third of the way in, and
// the soak still completes with every request answered 200 by a replica
// and every body byte-identical to the single-node reference — retries
// and failover alone absorb the kill and the fault plan, with no
// request answered 503.
//
// Ring placement hashes replica URLs and httptest ports differ run to
// run, so which replica owns which chaos key is known only once the
// listeners are bound. The replicas are bound unstarted, the ring is
// built from their addresses, and only then is the replica owning the
// most keys the plan corrupts armed — so its corrupt fault fires
// whatever the ports — and the busiest of the others picked to die. The
// breakers never open: an open breaker would skip the armed replica for
// a wall-clock cooldown, so whether a corrupt draw happened would depend
// on timing.
func TestChaosKillAndCorruptMidSoak(t *testing.T) {
	const rounds = 20
	ref := referenceBodies(t, rounds)
	inj := newChaosInjector(t)
	var pes []int
	for round := 0; round < rounds; round++ {
		for i := 0; i < chaosKeys; i++ {
			pes = append(pes, chaosPE(round, i))
		}
	}
	corrupt := corruptDrawn(t, pes)

	replicas := make([]*httptest.Server, 3)
	urls := make([]string, len(replicas))
	for i := range replicas {
		replicas[i] = httptest.NewUnstartedServer(nil)
		t.Cleanup(replicas[i].Close)
		urls[i] = "http://" + replicas[i].Listener.Addr().String()
	}

	cfg := testConfig(urls...)
	cfg.Quick = true
	cfg.BreakerThreshold = maxBreakerFails
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]int, len(replicas))
	ownedCorrupt := make([]int, len(replicas))
	for _, pe := range pes {
		req := httptest.NewRequest("POST", "/v1/predict", nil)
		owner := g.ring.owner(g.classify(req, predictBody(pe)).key)
		owned[owner]++
		if corrupt[pe] {
			ownedCorrupt[owner]++
		}
	}
	armed := 0
	for i, n := range ownedCorrupt {
		if n > ownedCorrupt[armed] {
			armed = i
		}
	}
	if ownedCorrupt[armed] == 0 {
		t.Fatalf("the plan corrupts none of the %d keys", len(pes))
	}
	victim := (armed + 1) % len(replicas)
	for i, n := range owned {
		if i != armed && n > owned[victim] {
			victim = i
		}
	}
	for i, ts := range replicas {
		var faults *faultinject.Injector
		if i == armed {
			faults = inj
		}
		ts.Config.Handler = chaosHandler(t, faults)
		ts.Start()
	}

	ctx, cancel := context.WithCancel(context.Background())
	g.Start(ctx)
	defer func() {
		cancel()
		g.Close()
	}()

	killAt := rounds / 3
	sent, sentAfterKill := 0, 0
	var proxiedAtKill []int64
	for round := 0; round < rounds; round++ {
		if round == killAt {
			replicas[victim].Close() // SIGKILL equivalent: connections refused from here on
			for i := range replicas {
				proxiedAtKill = append(proxiedAtKill, g.proxiedByIndex[i].Load())
			}
		}
		for i := 0; i < chaosKeys; i++ {
			pe := chaosPE(round, i)
			sent++
			if round >= killAt {
				sentAfterKill++
			}
			rec := post(t, g, "/v1/predict", predictBody(pe))
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d pe %d: lost request, status %d body %s",
					round, pe, rec.Code, rec.Body.String())
			}
			if !bytes.Equal(rec.Body.Bytes(), ref[pe]) {
				t.Fatalf("round %d pe %d: body diverged from single-node reference\n got: %q\nwant: %q",
					round, pe, rec.Body.String(), ref[pe])
			}
		}
	}

	if got := int(g.metrics.Total("krak_gateway_requests_total")); got < sent {
		t.Fatalf("gateway counted %d requests, sent %d", got, sent)
	}
	if g.retries.Load() == 0 {
		t.Fatal("soak survived a dead replica and a chaos plan without a single retry — faults cannot have been exercised")
	}
	if unavailable := g.unavailable.Load(); unavailable != 0 {
		t.Fatalf("retries and failover left %d requests to 503", unavailable)
	}
	// Every request after the kill was answered by a live replica, none
	// by the dead one or the gateway's cache.
	var grown int64
	for i := range replicas {
		d := g.proxiedByIndex[i].Load() - proxiedAtKill[i]
		if i == victim && d != 0 {
			t.Fatalf("the killed replica answered %d requests after the kill", d)
		}
		grown += d
	}
	if grown != int64(sentAfterKill) || g.cacheHits.Load() != 0 {
		t.Fatalf("after the kill replicas answered %d of %d requests and the cache %d",
			grown, sentAfterKill, g.cacheHits.Load())
	}
	// The armed replica drew a corrupt fault for every key it owns that
	// the plan corrupts, and every body above matched the reference, so
	// the gateway refused each one: every fault cost an attempt and a
	// retry on the next replica.
	totals := inj.Totals()
	faults := totals[faultinject.KindError] + totals[faultinject.KindCorrupt]
	if totals[faultinject.KindCorrupt] < int64(ownedCorrupt[armed]) {
		t.Fatalf("armed replica drew %d corrupt faults, want at least the %d of the keys it owns: %v",
			totals[faultinject.KindCorrupt], ownedCorrupt[armed], totals)
	}
	if g.retries.Load() < faults {
		t.Fatalf("%d retries for %d injected faults: a faulted answer was not refused", g.retries.Load(), faults)
	}
}

// runChaosSoak runs one fixed sequential request stream through a
// gateway onto a single armed replica and returns the injector's fault
// totals. Single-replica on purpose: ring placement hashes replica
// URLs, and httptest ports differ run to run, so with a fleet the
// subset of requests reaching the armed replica would vary. With one
// replica every request deterministically attempts it first, and with
// no cache directory a faulted request has nowhere left to go: each
// response is either the reference body or a 503, and the 503s number
// exactly the injected error and corrupt faults.
func runChaosSoak(t *testing.T, rounds int, ref map[int][]byte) map[string]int64 {
	t.Helper()
	inj := newChaosInjector(t)
	ts, _ := chaosReplica(t, inj)

	cfg := testConfig(ts.URL)
	cfg.Quick = true
	// Keep time out of the loop too: no Start (health probes are
	// scheduling noise when the replica stays up) and a breaker that
	// never opens (an open breaker skips the armed replica for a
	// wall-clock cooldown, hiding a timing-dependent number of draws).
	cfg.BreakerThreshold = maxBreakerFails
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var unavailable int64
	for round := 0; round < rounds; round++ {
		for i := 0; i < chaosKeys; i++ {
			pe := chaosPE(round, i)
			rec := post(t, g, "/v1/predict", predictBody(pe))
			switch rec.Code {
			case http.StatusOK:
				if !bytes.Equal(rec.Body.Bytes(), ref[pe]) {
					t.Fatalf("round %d pe %d: body diverged from single-node reference\n got: %q\nwant: %q",
						round, pe, rec.Body.String(), ref[pe])
				}
			case http.StatusServiceUnavailable:
				unavailable++
				if rec.Header().Get("Retry-After") == "" {
					t.Fatalf("round %d pe %d: 503 without Retry-After", round, pe)
				}
				if !strings.Contains(rec.Body.String(), "service unavailable") {
					t.Fatalf("round %d pe %d: 503 body %q does not carry ErrUnavailable", round, pe, rec.Body.String())
				}
			default:
				t.Fatalf("round %d pe %d: status %d body %s", round, pe, rec.Code, rec.Body.String())
			}
		}
	}
	totals := inj.Totals()
	if faulted := totals[faultinject.KindError] + totals[faultinject.KindCorrupt]; unavailable != faulted {
		t.Fatalf("%d requests answered 503, want one per injected error/corrupt fault (%d): %v", unavailable, faulted, totals)
	}
	return totals
}

// TestChaosFaultTotalsReproducible is the acceptance criterion from the
// issue: the same seed over the same request stream reproduces the same
// injected-fault sequence, observed as identical
// krak_fault_injected_total counters across two independent runs.
func TestChaosFaultTotalsReproducible(t *testing.T) {
	const rounds = 10
	ref := referenceBodies(t, rounds)
	first := runChaosSoak(t, rounds, ref)
	second := runChaosSoak(t, rounds, ref)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("fault totals diverged across identical runs:\nfirst:  %v\nsecond: %v", first, second)
	}
	var fired int64
	for _, n := range first {
		fired += n
	}
	if fired == 0 {
		t.Fatal("determinism vacuously true: no faults fired")
	}
}

// TestChaosSeedChangesFaultSequence guards against the injector
// ignoring its seed (which would also make the reproducibility test
// meaningless).
func TestChaosSeedChangesFaultSequence(t *testing.T) {
	draw := func(seed uint64) map[string]int64 {
		plan, err := faultinject.ParseFaultPlan([]byte(fmt.Sprintf(
			"plan reseed\nseed %d\nerror-rate 0.3\ncorrupt-rate 0.3\n", seed)))
		if err != nil {
			t.Fatal(err)
		}
		inj := faultinject.New(plan)
		ts, _ := chaosReplica(t, inj)
		for i := 0; i < 24; i++ {
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
				bytes.NewReader(predictBody(chaosPE(0, i%chaosKeys))))
			if err == nil {
				resp.Body.Close()
			}
		}
		return inj.Totals()
	}
	if a, b := draw(7), draw(1007); reflect.DeepEqual(a, b) {
		t.Logf("seeds 7 and 1007 happened to produce identical totals (%v) — suspicious but possible; trying a third", a)
		if c := draw(424242); reflect.DeepEqual(a, c) {
			t.Fatalf("three seeds, identical fault totals %v — the seed is being ignored", a)
		}
	}
}
