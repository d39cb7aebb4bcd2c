package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"path/filepath"
	"time"

	"krak/internal/artifacts"
	"krak/internal/core"
	"krak/internal/experiments"
	"krak/internal/mesh"
	"krak/internal/partition"
	"krak/pkg/krak"
)

// The replay times calls into each layer's public function on the
// workload's own open-loop inputs. A layer the workload never reaches is
// timed on its home workload's inputs instead (same seed), so every
// layer metric exists for every workload and stays flat where the
// workload does not exercise it.

// Caps on how many distinct inputs each replayed call sees, so the replay
// costs seconds, not minutes.
const (
	capCheap   = 400 // sub-millisecond calls
	capPredict = 48
	capSim     = 16
	capHeavy   = 4
)

var deckSizes = map[string]mesh.StandardSize{
	"small": mesh.Small, "medium": mesh.Medium, "large": mesh.Large, "figure2": mesh.Figure2,
}

// replayInputs are a workload's open-loop requests by kind.
type replayInputs map[Kind][]Request

func collectInputs(reqs []Request) replayInputs {
	in := replayInputs{}
	for _, r := range reqs {
		in[r.Kind] = append(in[r.Kind], r)
	}
	return in
}

// homes names, per kind, the workload whose inputs stand in when a
// workload sends none of that kind, and how many of its requests to draw.
var homes = []struct {
	workload string
	n        int
	kinds    []Kind
}{
	{"predict-hot", 400, []Kind{KindPredict}},
	{"simulate-mixed", 100, []Kind{KindSimWarm, KindSimCold}},
	{"analyst-batch", 30, []Kind{KindCompare, KindSweep, KindCalibrate}},
}

// withHomes returns the inputs with every kind the workload lacks filled
// from its home workload's stream.
func (in replayInputs) withHomes(seed uint64, cat catalog) replayInputs {
	all := maps.Clone(in)
	for _, h := range homes {
		var home replayInputs
		for _, k := range h.kinds {
			if len(all[k]) > 0 {
				continue
			}
			if home == nil {
				w, _ := workloadByName(h.workload)
				st := w.Stream(seed, cat)
				reqs := make([]Request, h.n)
				for i := range reqs {
					reqs[i] = st.Next()
				}
				home = collectInputs(reqs)
			}
			all[k] = home[k]
		}
	}
	return all
}

// own returns the workload's own requests of the given kinds, in order.
func (in replayInputs) own(kinds ...Kind) []Request {
	var out []Request
	for _, k := range kinds {
		out = append(out, firstN(in[k], capCheap)...)
	}
	return out
}

// timeCalls times f(0)..f(n-1) one call at a time and returns the median
// call; callers cycle i over their inputs.
func timeCalls(n int, f func(i int) error) (time.Duration, error) {
	d := make([]time.Duration, n)
	for i := range n {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		d[i] = time.Since(t0)
	}
	return percentile(sortedCopy(d), 50), nil
}

// replayer shares one set of quick machines and one artifact store across
// the layers, warmed before anything is timed, so every timing is of the
// steady state a warm replica sees.
type replayer struct {
	*refs
	dir   string
	store *artifacts.Store
	env   *experiments.Env
	out   []metric
}

func (rp *replayer) record(name string, d time.Duration) {
	unit, v := "us", us(d)
	if name[len(name)-3:] == "_ms" {
		unit, v = "ms", ms(d)
	}
	rp.out = append(rp.out, metric{name, unit, v})
}

func firstN[T any](s []T, n int) []T { return s[:min(len(s), n)] }

// warmTimed renders every request once untimed, then times two passes.
func (rp *replayer) warmTimed(reqs []Request) (time.Duration, [][]byte, error) {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		var err error
		if bodies[i], err = rp.render(r); err != nil {
			return 0, nil, err
		}
	}
	d, err := timeCalls(2*len(reqs), func(i int) error {
		_, err := rp.render(reqs[i%len(reqs)])
		return err
	})
	return d, bodies, err
}

// runReplay produces the R-sourced layer metrics from a workload's own
// open-loop inputs, standing in home inputs for the kinds it lacks. The
// disk tier stores the responses rendered for its own requests (or all
// rendered responses, when none of its own kinds is rendered).
func runReplay(ctx context.Context, dir string, own replayInputs, seed uint64, cat catalog) ([]metric, error) {
	rp := &replayer{refs: newRefs(ctx), dir: dir, store: artifacts.NewStore(), env: experiments.NewQuickEnv()}
	in := own.withHomes(seed, cat)
	var ownPayloads, allPayloads [][]byte
	keep := func(k Kind, b [][]byte) {
		allPayloads = append(allPayloads, b...)
		if len(own[k]) > 0 {
			ownPayloads = append(ownPayloads, b...)
		}
	}
	// ownOr returns the workload's own requests of kinds, or the home
	// inputs' when it sends none of them.
	ownOr := func(kinds ...Kind) []Request {
		if r := own.own(kinds...); len(r) > 0 {
			return r
		}
		return in.own(kinds...)
	}
	timeRenders := func(name string, k Kind, n int) error {
		d, b, err := rp.warmTimed(firstN(in[k], n))
		rp.record(name, d)
		keep(k, b)
		return err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"wire", func() error { return rp.wire(ownOr(KindPredict, KindSimWarm, KindSimCold)) }},
		{"machine build", func() error {
			return rp.machineBuild(ownOr(KindPredict, KindSimWarm, KindSimCold, KindCompare, KindSweep, KindCalibrate))
		}},
		{"predict", func() error {
			b, err := rp.predict(in[KindPredict])
			keep(KindPredict, b)
			return err
		}},
		{"simulate", func() error { return timeRenders("krak.simulate_warm_ms", KindSimWarm, capSim) }},
		{"sweep", func() error { return rp.sweep(firstN(in[KindSweep], capHeavy)) }},
		{"calibrate", func() error { return timeRenders("krak.calibrate_ms", KindCalibrate, capHeavy) }},
		{"compare", func() error { return timeRenders("compare.run_ms", KindCompare, capHeavy) }},
		{"disk tier", func() error {
			if len(ownPayloads) == 0 {
				return rp.disk(allPayloads)
			}
			return rp.disk(ownPayloads)
		}},
		{"partition", func() error { return rp.partitionLayers(in) }},
		{"general model", func() error { return rp.generalPredict(in[KindPredict]) }},
	}
	for _, st := range steps {
		if err := st.fn(); err != nil {
			return nil, fmt.Errorf("replay %s: %w", st.name, err)
		}
	}
	return rp.out, nil
}

// wire: the decode + Normalized + CanonicalKey every replica runs first,
// on predict and simulate bodies.
func (rp *replayer) wire(reqs []Request) error {
	d, err := timeCalls(capCheap, func(i int) error {
		r := reqs[i%len(reqs)]
		dec := json.NewDecoder(bytes.NewReader(r.Body))
		dec.DisallowUnknownFields()
		if r.Kind == KindPredict {
			var p krak.PredictRequest
			if err := dec.Decode(&p); err != nil {
				return err
			}
			_ = p.Normalized().CanonicalKey()
			return nil
		}
		var s krak.SimulateRequest
		if err := dec.Decode(&s); err != nil {
			return err
		}
		_ = s.Normalized().CanonicalKey()
		return nil
	})
	rp.record("krak.wire_us", d)
	return err
}

// machineBuild: the throwaway NewMachine each replica request validates
// its spec with, over every machine spec the requests carry.
func (rp *replayer) machineBuild(reqs []Request) error {
	var specs []krak.MachineSpec
	for _, r := range reqs {
		var probe struct {
			Machine  krak.MachineSpec   `json:"machine"`
			Machines []krak.MachineSpec `json:"machines"`
		}
		if err := json.Unmarshal(r.Body, &probe); err != nil {
			return err
		}
		for _, ms := range append(probe.Machines, probe.Machine) {
			rs, err := resolve(ms)
			if err != nil {
				return err
			}
			specs = append(specs, rs)
		}
	}
	d, err := timeCalls(capCheap, func(i int) error {
		ms := specs[i%len(specs)]
		_, err := krak.NewMachine(append(ms.Options(), krak.WithSharedArtifacts(rp.sa))...)
		return err
	})
	rp.record("krak.machine_build_us", d)
	return err
}

// predict: Session.Predict and its rendering, artifacts warm.
func (rp *replayer) predict(reqs []Request) ([][]byte, error) {
	reqs = firstN(reqs, capPredict)
	sessions := make([]*krak.Session, len(reqs))
	results := make([]*krak.Result, len(reqs))
	for i, r := range reqs {
		var pr krak.PredictRequest
		err := json.Unmarshal(r.Body, &pr)
		if err == nil {
			sessions[i], err = rp.session(pr.Machine, pr.Scenario)
		}
		if err == nil {
			results[i], err = sessions[i].Predict() // warm-up
		}
		if err != nil {
			return nil, err
		}
	}
	n := 3 * len(reqs)
	d, err := timeCalls(n, func(i int) error {
		_, err := sessions[i%len(reqs)].Predict()
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.record("krak.predict_us", d)
	payloads := make([][]byte, len(results))
	d, err = timeCalls(n, func(i int) error {
		b, err := renderJSON(results[i%len(results)])
		payloads[i%len(results)] = b
		return err
	})
	rp.record("krak.marshal_us", d)
	return payloads, err
}

// sweep: a whole simulate sweep on a warm machine.
func (rp *replayer) sweep(reqs []Request) error {
	run := func(i int) error {
		var sw krak.SweepRequest
		if err := json.Unmarshal(reqs[i%len(reqs)].Body, &sw); err != nil {
			return err
		}
		op, grid, err := sw.Grid()
		if err != nil {
			return err
		}
		sess, err := rp.session(sw.Machine, func() (*krak.Scenario, error) { return krak.NewScenario() })
		if err != nil {
			return err
		}
		_, err = sess.Sweep(rp.ctx, op, grid)
		return err
	}
	for i := range reqs {
		if err := run(i); err != nil {
			return err
		}
	}
	d, err := timeCalls(2*len(reqs), run)
	rp.record("krak.sweep_ms", d)
	return err
}

// disk: the content-addressed disk tier's Put and Get of this workload's
// response bodies.
func (rp *replayer) disk(payloads [][]byte) error {
	if len(payloads) == 0 {
		return fmt.Errorf("no response bodies to store")
	}
	dc, err := artifacts.OpenDiskCache(filepath.Join(rp.dir, "disk"))
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("replay|%d", i) }
	n := min(capCheap, 4*len(payloads))
	d, err := timeCalls(n, func(i int) error {
		dc.Put("response", key(i), payloads[i%len(payloads)])
		return nil
	})
	if err != nil {
		return err
	}
	rp.record("artifacts.disk_put_us", d)
	d, err = timeCalls(n, func(i int) error {
		if _, ok := dc.Get("response", key(i)); !ok {
			return fmt.Errorf("disk entry %s missing", key(i))
		}
		return nil
	})
	rp.record("artifacts.disk_get_us", d)
	return err
}

type deckPE struct {
	deck *mesh.Deck
	pe   int
}

func (rp *replayer) deckPEs(reqs []Request) ([]deckPE, error) {
	var out []deckPE
	for _, r := range reqs {
		var sr krak.SimulateRequest
		if err := json.Unmarshal(r.Body, &sr); err != nil {
			return nil, err
		}
		sr = sr.Normalized()
		d, err := rp.store.StandardDeck(deckSizes[sr.Deck], true)
		if err != nil {
			return nil, err
		}
		out = append(out, deckPE{d, sr.PEs})
	}
	return out, nil
}

// partitionLayers: the multilevel partitioner and summarizer on the cold
// (never-cached) inputs, the summary cache hit and one simulated
// iteration on the warm ones.
func (rp *replayer) partitionLayers(in replayInputs) error {
	cold, err := rp.deckPEs(firstN(in[KindSimCold], capHeavy))
	if err != nil {
		return err
	}
	ml := partition.NewMultilevel(1)
	graphs := make([]*partition.Graph, len(cold))
	for i, c := range cold {
		if graphs[i], err = rp.store.Graph(c.deck); err != nil {
			return err
		}
	}
	parts := make([][]int, len(cold))
	d, err := timeCalls(len(cold), func(i int) error {
		var err error
		parts[i], err = ml.Partition(graphs[i], cold[i].pe)
		return err
	})
	if err != nil {
		return err
	}
	rp.record("partition.multilevel_ms", d)
	d, err = timeCalls(len(cold), func(i int) error {
		_, err := mesh.Summarize(cold[i].deck.Mesh, parts[i], cold[i].pe)
		return err
	})
	if err != nil {
		return err
	}
	rp.record("mesh.summarize_ms", d)

	warm, err := rp.deckPEs(firstN(in[KindSimWarm], capSim))
	if err != nil {
		return err
	}
	sums := make([]*mesh.PartitionSummary, len(warm))
	for i, w := range warm {
		if sums[i], err = rp.store.Summary(w.deck, ml, 1, w.pe); err != nil {
			return err
		}
	}
	d, err = timeCalls(capCheap, func(i int) error {
		w := warm[i%len(warm)]
		_, err := rp.store.Summary(w.deck, ml, 1, w.pe)
		return err
	})
	if err != nil {
		return err
	}
	rp.record("artifacts.summary_hit_us", d)
	d, err = timeCalls(2*len(sums), func(i int) error {
		_, err := rp.env.MeasureResult(sums[i%len(sums)])
		return err
	})
	rp.record("cluster.iteration_ms", d)
	return err
}

// generalPredict: the general model's evaluation alone, calibration warm.
func (rp *replayer) generalPredict(reqs []Request) error {
	cal, err := rp.env.ContrivedCalibration()
	if err != nil {
		return err
	}
	type point struct {
		cells, pe int
		mode      core.MaterialMode
	}
	var pts []point
	for _, r := range firstN(reqs, capCheap) {
		var pr krak.PredictRequest
		if err := json.Unmarshal(r.Body, &pr); err != nil {
			return err
		}
		pr = pr.Normalized()
		mode := core.Homogeneous
		switch pr.Model {
		case "general-het":
			mode = core.Heterogeneous
		case "mesh-specific":
			continue
		}
		d, err := rp.store.StandardDeck(deckSizes[pr.Deck], true)
		if err != nil {
			return err
		}
		pts = append(pts, point{d.Mesh.NumCells(), pr.PEs, mode})
	}
	if len(pts) == 0 {
		return fmt.Errorf("no general-model predict inputs")
	}
	d, err := timeCalls(capCheap, func(i int) error {
		p := pts[i%len(pts)]
		_, err := core.NewGeneral(cal, rp.env.Net, p.mode).Predict(p.cells, p.pe)
		return err
	})
	rp.record("core.general_predict_us", d)
	return err
}
