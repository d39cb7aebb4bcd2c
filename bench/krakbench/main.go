// Command krakbench is the repository's end-to-end benchmark. It boots the
// documented fleet in process — three quick replicas behind a gateway —
// and drives four named, seeded workloads through it over nproc
// keep-alive connections:
//
//	predict-hot     repeat predict questions (response-LRU hits)
//	predict-miss    never-seen predict keys (misses, batcher, evaluation)
//	simulate-mixed  two thirds warm, one third cold simulations
//	analyst-batch   compare, simulate sweeps and calibrations
//
// Each workload runs set-up (boot plus warm-up, repeated and reported as
// the median setup_s), a 2 s unrecorded ramp, then a fixed-rate open loop
// (p50_ms, p90_ms, live_heap_mb, the /metrics counters) and a closed loop
// (throughput_rps), alternating in four rounds over -seconds measured
// seconds. Every response is verified against a reference built through
// pkg/krak; a mismatch fails the run.
//
// Run from the repository root (see bench/README.md):
//
//	bash bench/run.sh                                  # all four workloads
//	bash bench/run.sh -workload predict-hot -seed 2    # one, ending in a JSON line
//	bash bench/run.sh -workload predict-hot -trace 1   # plus spans, replay, trace file
//	bash bench/run.sh -smoke                           # 1 s phases, rates / 10
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool
	root     string
	repo     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, human-readable report only)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measured seconds per run, split between the open and closed loops")
	flag.IntVar(&o.trace, "trace", 0, "1: also run the traced pass and the replay, report per-layer metrics, and write <root>/trace-<workload>.json")
	flag.BoolVar(&o.smoke, "smoke", false, "1 s phases, rates / 10, one set-up, ephemeral ports")
	flag.StringVar(&o.root, "root", filepath.Join(".bench_build", "krakbench-run"), "directory for the traces and the replay's disk-tier timing")
	flag.StringVar(&o.repo, "repo", ".", "repository root (holds machines/)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "krakbench:", err)
		os.Exit(1)
	}
}

// errFailed reports that the run completed but some request failed or
// mismatched its reference.
var errFailed = errors.New("requests failed or mismatched their references")

// run executes the selected workloads, printing the report to out. With a
// single workload the last line is the JSON result object.
func run(ctx context.Context, o options, out io.Writer) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 && !o.smoke {
		return fmt.Errorf("-seconds must be >= 1, got %d", o.seconds)
	}
	cat, err := loadCatalog(filepath.Join(o.repo, "machines"))
	if err != nil {
		return err
	}
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []Workload{w}
	}
	if err := os.MkdirAll(o.root, 0o755); err != nil {
		return err
	}
	failed := false
	for _, w := range selected {
		rep, err := runWorkload(ctx, o, w, cat, out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		failed = failed || !rep.correct
		if o.workload != "" {
			if err := json.NewEncoder(out).Encode(rep.result(o.trace == 1)); err != nil {
				return err
			}
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// plan is one run's phase lengths and load. The open and closed loops
// alternate in rounds: openN[r] open-loop requests, then closed/rounds of
// closed loop. On a shared 2-thread VM, the rate of a fixed CPU-bound
// task drifted by 10-15% over stretches of tens of seconds, so a metric
// taken from one contiguous stretch of a run inherits whatever the host
// did then; spread over the whole run, it averages some of the drift.
type plan struct {
	ramp, open, closed time.Duration // open and closed: totals over the rounds
	rate               float64
	rampN              int
	openN              []int
	setups             int           // set-ups to run at least
	setupBudget        time.Duration // keep setting up while the set-ups took less
	ports              []int
}

const (
	// rounds is how many open/closed rounds a full run alternates.
	rounds = 4

	// defaultSeconds is a run's measured length unless -seconds says
	// otherwise: all four workloads, set-ups and verification included,
	// run in about two minutes.
	defaultSeconds = 18

	// openShare is the open loop's share of the measured seconds (15 s of
	// every 23); the closed loop gets the rest.
	openShare = 15.0 / 23

	// Set-up runs at least minSetups times, then again while the set-ups
	// so far took under a second, up to maxSetups, so that a cheap set-up
	// is the median of many: predict-miss boots in ~30 ms, and as the
	// median of three its setup_s spread 0.40 (quartiles over ten seeds).
	minSetups = 3
	maxSetups = 15
)

func planFor(w Workload, o options) plan {
	total := time.Duration(o.seconds) * time.Second
	open := time.Duration(openShare * float64(total)).Round(100 * time.Millisecond)
	p := plan{ramp: 2 * time.Second, open: open, closed: total - open, rate: w.Rate,
		setups: minSetups, setupBudget: time.Second, ports: replicaPorts}
	if o.smoke {
		p = plan{open: time.Second, closed: time.Second, rate: w.Rate / 10, setups: 1, ports: []int{0, 0, 0}}
	}
	// Whole simBlocks, so simulate-mixed's windows are exactly one third
	// cold (smoke windows may be shorter than one block, and run as one
	// round).
	count := func(d time.Duration) int {
		n := int(p.rate * d.Seconds())
		if n >= simBlock {
			n -= n % simBlock
		}
		return n
	}
	p.rampN = count(p.ramp)
	n := max(1, count(p.open))
	if o.smoke {
		p.openN = []int{n}
		return p
	}
	blocks := n / simBlock
	for r := range rounds {
		p.openN = append(p.openN, simBlock*(blocks*(r+1)/rounds-blocks*r/rounds))
	}
	return p
}

// openTotal is the open loop's request count over all rounds.
func (p plan) openTotal() int {
	n := 0
	for _, k := range p.openN {
		n += k
	}
	return n
}

// pass is one measured run of a workload on one fleet.
type pass struct {
	ramp, open, closed []sample
	oversleep          []time.Duration
	closedElapsed      time.Duration
	rounds             [][2]float64 // per round: open-loop p50 (ms), closed-loop req/s
	counters           []metric
	allocKBPerReq      float64
	gcPerKReq          float64
	liveHeapMiB        float64
	proxied            []float64
	digests, bodies    int
	mismatches         []string
	verifyWall         time.Duration
}

func (ps *pass) p(q float64) float64 { return ms(percentile(sortedCopy(latencies(ps.open)), q)) }

func (ps *pass) throughput() float64 {
	return float64(len(ps.closed)) / ps.closedElapsed.Seconds()
}

func (ps *pass) tally() tally { return tallyOf(ps.ramp, ps.open, ps.closed) }

func latencies(s []sample) []time.Duration {
	out := make([]time.Duration, len(s))
	for i := range s {
		out[i] = s[i].lat
	}
	return out
}

// report is everything printed for one workload.
type report struct {
	w        Workload
	plan     plan
	setups   []float64
	untraced *pass
	traced   *pass
	spans    spanStats
	scrapeUS float64
	replay   []metric
	correct  bool
}

func (r *report) e2e() []metric {
	p := r.untraced
	return []metric{
		{"throughput_rps", "req/s", p.throughput()},
		{"p50_ms", "ms", p.p(50)},
		{"p90_ms", "ms", p.p(90)},
		{"setup_s", "s", median(r.setups)},
		{"live_heap_mb", "MiB", p.liveHeapMiB},
	}
}

// runtimeMetrics are the per-layer metrics every pass collects besides
// the /metrics counters: the Go runtime's and the generator's own.
func (ps *pass) runtimeMetrics() []metric {
	over := 0.0
	if len(ps.oversleep) > 0 {
		over = us(percentile(sortedCopy(ps.oversleep), 99))
	}
	return []metric{
		{"go.alloc_kb_per_req", "KiB", ps.allocKBPerReq},
		{"go.gc_per_kreq", "count", ps.gcPerKReq},
		{"loadgen.oversleep_us_p99", "us", over},
	}
}

// layer returns the per-layer metrics in the order BENCHMARK.json lists
// them: spans of the traced pass, then the untraced pass's counters, the
// replay, and the untraced pass's runtime numbers.
func (r *report) layer() []metric {
	st := r.spans
	out := []metric{
		{"gateway.self_us", "us", st.gatewaySelfUS},
		{"http.client_us", "us", st.httpClientUS},
		{"server.busy_us_p50", "us", us(percentile(st.busy, 50))},
		{"server.busy_us_p90", "us", us(percentile(st.busy, 90))},
	}
	out = append(out, r.untraced.counters...)
	out = append(out, r.replay...)
	out = append(out, metric{"metrics.scrape_us", "us", r.scrapeUS})
	return append(out, r.untraced.runtimeMetrics()...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// tally counts every request the run sent, traced pass included.
func (r *report) tally() tally {
	t := r.untraced.tally()
	if r.traced != nil {
		tt := r.traced.tally()
		t.attempted += tt.attempted
		for i := range t.byClass {
			t.byClass[i] += tt.byClass[i]
		}
	}
	return t
}

func (r *report) result(layer bool) resultLine {
	t := r.tally()
	ms := r.e2e()
	if layer {
		ms = r.layer()
	}
	res := resultLine{Correct: r.correct, Attempted: t.attempted, Failed: t.failed(),
		Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return res
}

// runWorkload sets the workload up, measures it, and (with -trace 1)
// measures it again traced and replays its inputs.
func runWorkload(ctx context.Context, o options, w Workload, cat catalog, out io.Writer) (*report, error) {
	p := planFor(w, o)
	rep := &report{w: w, plan: p}
	start := time.Now()
	var f *fleet
	for k := 0; k < p.setups || (k < maxSetups && time.Since(start) < p.setupBudget); k++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		var err error
		runtime.GC() // the previous fleet's garbage is not this set-up's
		t0 := time.Now()
		if f, err = setUp(ctx, p.ports, nil, w, cat); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	setupWall := time.Since(start)
	ps, err := measure(ctx, f, w, p, o.seed, cat, nil)
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep.untraced = ps
	printHeader(out, rep, o)
	printPass(out, rep)
	fmt.Fprintf(out, "[%s] wall: set-ups %.1fs, measured pass %.1fs (verification %.1fs)\n",
		w.Name, setupWall.Seconds(), (time.Since(start) - setupWall).Seconds(), ps.verifyWall.Seconds())

	if o.trace == 1 {
		t0 := time.Now()
		if err := traced(ctx, o, rep, cat, out); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "[%s] wall: traced pass and replay %.1fs\n", w.Name, time.Since(t0).Seconds())
	}
	rep.correct = rep.tally().failed() == 0
	return rep, nil
}

// setUp boots a fleet and sends the warm-up requests, one sender per
// replica: the gateway's requests split across them, then each replica's
// own, the replicas warming side by side as separately started processes
// would.
func setUp(ctx context.Context, ports []int, spans *recorder, w Workload, cat catalog) (*fleet, error) {
	f, err := bootFleet(ports, spans)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: 2 * time.Minute}
	defer hc.CloseIdleConnections()
	n := len(f.replicaURLs)
	errs := make([]error, n)
	inParallel := func(send func(i int) error) error {
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = send(i)
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	viaGateway, perReplica := w.Warm(cat)
	err = inParallel(func(i int) error {
		for k := i; k < len(viaGateway); k += n {
			if err := post(ctx, hc, f.gwURL, viaGateway[k]); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = inParallel(func(i int) error {
			for _, r := range perReplica {
				if err := post(ctx, hc, f.replicaURLs[i], r); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return f, nil
}

// keepOneIn8 is the seeded 1-in-8 sample of non-predict responses whose
// full bodies are kept for byte comparison (predict bodies are all
// checked by digest).
func keepOneIn8(seed uint64) func(int, Kind) bool {
	return func(idx int, k Kind) bool {
		if k == KindPredict {
			return false
		}
		x := seed ^ uint64(idx)*0x9e3779b97f4a7c15
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 29
		return x%8 == 0
	}
}

// measure runs the ramp and the plan's open/closed rounds on f, then
// verifies every window. Verification builds references in this process,
// so it runs after the timed windows; each timed window starts from a
// collected heap, so earlier garbage is not charged to it.
func measure(ctx context.Context, f *fleet, w Workload, p plan, seed uint64, cat catalog, spans *recorder) (*pass, error) {
	conns := runtime.NumCPU()
	c := newClient(f.gwURL, conns, spans, keepOneIn8(seed))
	defer c.close()
	hc := &http.Client{Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	q := &seq{st: w.Stream(seed, cat)}
	ps := &pass{}

	ps.ramp = openLoop(ctx, c, q, p.rate, p.rampN, realClock).samples
	var delta, last fleetScrape
	var alloc, gcs uint64
	for r, n := range p.openN {
		// Start on a simBlock boundary whatever the closed loop took, so
		// simulate-mixed's open loop stays exactly one third cold.
		q.align(simBlock)
		before, err := scrapeFleet(ctx, hc, f)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		rt0 := readRuntime()
		open := openLoop(ctx, c, q, p.rate, n, realClock)
		rt1 := readRuntime()
		if last, err = scrapeFleet(ctx, hc, f); err != nil {
			return nil, err
		}
		delta.addDelta(before, last)
		alloc += rt1.allocBytes - rt0.allocBytes
		gcs += rt1.gcCycles - rt0.gcCycles
		ps.open = append(ps.open, open.samples...)
		ps.oversleep = append(ps.oversleep, open.oversleep...)
		// Every round collects here, so the closed loop also starts from
		// a collected heap. Only the first round's live heap is reported:
		// its request set is fixed, while later rounds follow closed loops
		// of varying length.
		if heap := liveHeapMiB(); r == 0 {
			ps.liveHeapMiB = heap
		}
		closed, elapsed := closedLoop(ctx, c, q, p.closed/time.Duration(len(p.openN)))
		ps.closed = append(ps.closed, closed...)
		ps.closedElapsed += elapsed
		ps.rounds = append(ps.rounds, [2]float64{
			ms(percentile(sortedCopy(latencies(open.samples)), 50)),
			float64(len(closed)) / elapsed.Seconds()})
	}
	ps.counters = counterMetrics(delta, last, f.replicaURLs)
	n := float64(len(ps.open))
	ps.allocKBPerReq = float64(alloc) / 1024 / n
	ps.gcPerKReq = float64(gcs) / n * 1000

	end, err := scrapeFleet(ctx, hc, f)
	if err != nil {
		return nil, err
	}
	for _, u := range f.replicaURLs {
		ps.proxied = append(ps.proxied, end.gateway.sum("krak_gateway_replica_proxied_total", `replica="`+u+`"`))
	}
	t0 := time.Now()
	v := newVerifier(ctx, w.Stream(seed, cat))
	if ps.mismatches, err = v.check(c.body, ps.ramp, ps.open, ps.closed); err != nil {
		return nil, err
	}
	ps.verifyWall = time.Since(t0)
	ps.digests, ps.bodies = v.digests, v.bodies
	return ps, ctx.Err()
}

// traced measures the workload again with spans recorded at the client,
// gateway and replica boundaries, times /metrics scrapes, replays the
// open-loop inputs through each layer, and writes the trace.
func traced(ctx context.Context, o options, rep *report, cat catalog, out io.Writer) error {
	w, p := rep.w, rep.plan
	spans := newRecorder(3 * (p.rampN + p.openTotal() + int(w.Rate*p.closed.Seconds())))
	f, err := setUp(ctx, p.ports, spans, w, cat)
	if err != nil {
		return err
	}
	spans.start()
	ps, err := measure(ctx, f, w, p, o.seed, cat, spans)
	if err == nil {
		rep.scrapeUS, err = timeScrapes(ctx, f.replicaURLs[0])
	}
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rep.traced = ps
	open := map[int]bool{}
	for _, s := range ps.open {
		open[s.idx] = true
	}
	rep.spans = analyzeSpans(spans.snapshot(), open)

	own := collectInputs(requestsAt(w.Stream(o.seed, cat), ps.open))
	replayDir := filepath.Join(o.root, w.Name+"-replay")
	defer os.RemoveAll(replayDir)
	if rep.replay, err = runReplay(ctx, replayDir, own, o.seed, cat); err != nil {
		return err
	}
	path := filepath.Join(o.root, "trace-"+w.Name+".json")
	if err := writeChromeTrace(path, spans.snapshot()); err != nil {
		return err
	}
	printTraced(out, rep, path)
	return nil
}

// timeScrapes times GET /metrics on a replica and returns the median in
// microseconds.
func timeScrapes(ctx context.Context, base string) (float64, error) {
	hc := &http.Client{Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	d, err := timeCalls(50, func(int) error {
		_, err := scrape(ctx, hc, base)
		return err
	})
	return us(d), err
}

// commit is the VCS revision the benchmark binary was built from, when
// the build recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

func printHeader(out io.Writer, r *report, o options) {
	p := r.plan
	fmt.Fprintf(out, "== %s: %s\n", r.w.Name, r.w.Why)
	// disk_fs is where the replay times the disk tier (-root).
	fmt.Fprintf(out, "[%s] env nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d disk_fs=%s conns=%d\n",
		r.w.Name, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), o.seed, filesystemType(o.root), runtime.NumCPU())
	fmt.Fprintf(out, "[%s] plan ramp=%v open=%v@%.0f/s (%d requests) closed=%v in %d rounds, setups=%d\n",
		r.w.Name, p.ramp, p.open, p.rate, p.openTotal(), p.closed, len(p.openN), len(r.setups))
}

func printMetric(out io.Writer, wl string, m metric, note string) {
	fmt.Fprintf(out, "[%s] %s = %.6g %s%s\n", wl, m.name, m.value, m.unit, note)
}

func printPass(out io.Writer, r *report) {
	wl, ps := r.w.Name, r.untraced
	lat := sortedCopy(latencies(ps.open))
	for _, m := range r.e2e() {
		note := ""
		switch m.name {
		case "p50_ms", "p90_ms":
			note = fmt.Sprintf("  (open loop, n=%d)", len(lat))
		case "throughput_rps":
			note = fmt.Sprintf("  (closed loop, %d conns, %d requests in %.2fs)", runtime.NumCPU(), len(ps.closed), ps.closedElapsed.Seconds())
		case "setup_s":
			note = fmt.Sprintf("  (median of %s)", fmtFloats(r.setups))
		}
		printMetric(out, wl, m, note)
	}
	t := ps.tally()
	printMetric(out, wl, metric{"error_rate", "ratio", t.errorRate()},
		fmt.Sprintf("  (%d failed of %d: transport %d, 429/503 %d, other status %d, mismatch %d)",
			t.failed(), t.attempted, t.byClass[outcomeTransport], t.byClass[outcomeRefused],
			t.byClass[outcomeStatus], t.byClass[outcomeMismatch]))
	printMetric(out, wl, metric{"p99_ms", "ms", ms(percentile(lat, 99))}, fmt.Sprintf("  (n=%d; not an end-to-end metric)", len(lat)))
	if tp, beyond, ok := tailPercentile(len(lat)); ok {
		fmt.Fprintf(out, "[%s] tail p%g = %.6g ms  (%d of %d samples beyond)\n", wl, tp, ms(percentile(lat, tp)), beyond, len(lat))
	}
	for _, m := range ps.counters {
		printMetric(out, wl, m, "  (/metrics delta over the open loop)")
	}
	for _, m := range ps.runtimeMetrics() {
		printMetric(out, wl, m, "  (over the open loop)")
	}
	rs := make([]string, len(ps.rounds))
	for i, r := range ps.rounds {
		rs[i] = fmt.Sprintf("%.4g ms / %.4g req/s", r[0], r[1])
	}
	fmt.Fprintf(out, "[%s] rounds (open-loop p50 / closed-loop throughput): %s\n", wl, strings.Join(rs, ", "))
	fmt.Fprintf(out, "[%s] keys served per replica (requests proxied): %s\n", wl, fmtFloats(ps.proxied))
	fmt.Fprintf(out, "[%s] verification: %d digests and %d bodies checked against pkg/krak references, %d mismatches\n",
		wl, ps.digests, ps.bodies, len(ps.mismatches))
	for _, m := range firstN(ps.mismatches, 5) {
		fmt.Fprintf(out, "[%s] mismatch: %s\n", wl, m)
	}
}

func printTraced(out io.Writer, r *report, path string) {
	wl, st := r.w.Name, r.spans
	for _, m := range r.layer() {
		printMetric(out, wl, m, "")
	}
	u, t := r.untraced, r.traced
	pct := func(a, b float64) float64 { return (b - a) / a * 100 }
	fmt.Fprintf(out, "[%s] tracing overhead: p50_ms %.4g -> %.4g (%+.1f%%), throughput_rps %.4g -> %.4g (%+.1f%%)\n",
		wl, u.p(50), t.p(50), pct(u.p(50), t.p(50)), u.throughput(), t.throughput(), pct(u.throughput(), t.throughput()))
	sum := st.httpClientUS + st.gatewaySelfUS + st.busyMeanUS
	fmt.Fprintf(out, "[%s] decomposition: mean client %.1f us = http %.1f + gateway self %.1f + replica busy %.1f (%.1f us, %+.2f%%) over %d requests, %d spans unlinked\n",
		wl, st.clientMeanUS, st.httpClientUS, st.gatewaySelfUS, st.busyMeanUS, sum, pct(st.clientMeanUS, sum), st.requests, st.unlinked)
	fmt.Fprintf(out, "[%s] trace: %s (open in https://ui.perfetto.dev)\n", wl, path)
}

func fmtFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}
