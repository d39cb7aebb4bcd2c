package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"

	"krak/internal/compare"
	"krak/pkg/krak"
)

// Kind is the work a generated request asks for; verification and the
// replay dispatch on it.
type Kind string

// The request kinds the workloads send.
const (
	KindPredict   Kind = "predict"
	KindSimWarm   Kind = "simulate-warm"
	KindSimCold   Kind = "simulate-cold"
	KindCompare   Kind = "compare"
	KindSweep     Kind = "sweep"
	KindCalibrate Kind = "calibrate"
)

// Request is one generated POST: its path, JSON body and kind.
type Request struct {
	Path string
	Body []byte
	Kind Kind
}

// Stream yields a workload's requests in a fixed order for a seed.
type Stream interface {
	Next() Request
}

// cursor replays a stream from its start, so a sample's request is
// recovered from its stream position instead of being kept in memory
// during the run.
type cursor struct {
	st  Stream
	pos int
	cur Request
}

// at returns the request at stream position idx; positions must be asked
// for in non-decreasing order.
func (c *cursor) at(idx int) Request {
	for c.pos <= idx {
		c.cur = c.st.Next()
		c.pos++
	}
	return c.cur
}

// requestsAt returns the requests the samples sent, in stream order.
func requestsAt(st Stream, samples []sample) []Request {
	idx := make([]int, len(samples))
	for i, s := range samples {
		idx[i] = s.idx
	}
	slices.Sort(idx)
	c := &cursor{st: st}
	out := make([]Request, len(idx))
	for i, k := range idx {
		out[i] = c.at(k)
	}
	return out
}

// Workload is one named traffic mix. Rates are constants set once from
// measured closed-loop capacity (about 30% of it); they are never tuned at
// run time.
type Workload struct {
	Name string
	Why  string

	// Rate is the open-loop arrival rate in requests per second.
	Rate float64

	// Warm returns the set-up requests: viaGateway go through the gateway
	// (so they land where the ring puts them), perReplica go to every
	// replica directly (state each replica must hold whatever the ring
	// says). None of them is a key the stream sends later, except where
	// the workload exists to measure hits (predict-hot).
	Warm func(cat catalog) (viaGateway, perReplica []Request)

	// Stream returns the seeded request stream.
	Stream func(seed uint64, cat catalog) Stream
}

// catalog is the embedded machine-file set compare requests carry: the
// repository's machines/*.machine files, in name order.
type catalog []krak.MachineSpec

// loadCatalog reads every machine file under dir as an embedded-file
// spec, the form a remote client would send.
func loadCatalog(dir string) (catalog, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+compare.MachineFileExt))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no %s files under %s", compare.MachineFileExt, dir)
	}
	slices.Sort(paths)
	var cat catalog
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		cat = append(cat, krak.MachineSpec{File: string(src)})
	}
	return cat, nil
}

var (
	decks         = []string{"small", "figure2", "medium", "large"}
	interconnects = []string{"qsnet", "gige", "infiniband"}
)

// newRand returns the workload's generator for a seed; salt keeps
// workloads sharing a seed from drawing the same numbers.
func newRand(seed, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, salt))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every wire type here marshals; a failure is a bug
	}
	return b
}

func predictReq(deck string, pes int, model string) Request {
	return Request{Path: "/v1/predict", Kind: KindPredict,
		Body: mustJSON(krak.PredictRequest{Deck: deck, PEs: pes, Model: model})}
}

func simulateReq(kind Kind, deck string, pes, iters int, ic string, serialize bool) Request {
	return Request{Path: "/v1/simulate", Kind: kind, Body: mustJSON(krak.SimulateRequest{
		Deck: deck, PEs: pes, Iterations: iters,
		Machine: krak.MachineSpec{Interconnect: ic, SerializeSends: serialize},
	})}
}

// workloads are the benchmark's four named traffic mixes, in run order.
var workloads = []Workload{
	{
		Name: "predict-hot",
		Why:  "repeat predict questions: every request is a response-LRU hit, so time goes to the gateway, two HTTP hops and per-request decode",
		Rate: 3000,
		Warm: func(catalog) ([]Request, []Request) {
			return hotKeys(), nil
		},
		Stream: func(seed uint64, _ catalog) Stream { return newHotStream(seed) },
	},
	{
		Name: "predict-miss",
		Why:  "never-seen predict keys: LRU misses, the batch window, model evaluation and rendering on every request",
		Rate: 400,
		Warm: func(catalog) ([]Request, []Request) {
			// PE 1 lies outside the stream's [2, 2^17] range, so the warm
			// keys build decks and calibrations without pre-filling any
			// key the stream sends.
			var per []Request
			for _, d := range decks {
				per = append(per, predictReq(d, 1, "general-homo"))
			}
			return nil, per
		},
		Stream: func(seed uint64, _ catalog) Stream { return newMissStream(seed) },
	},
	{
		Name: "simulate-mixed",
		Why:  "two thirds warm simulations (simulator only), one third cold (partitioner): p50 follows the simulator, p90 the partitioner",
		Rate: 15,
		Warm: func(catalog) ([]Request, []Request) {
			var per []Request
			for _, d := range decks {
				for _, pe := range simWarmPEs {
					per = append(per, simulateReq(KindSimWarm, d, pe, 1, "qsnet", false))
				}
			}
			return nil, per
		},
		Stream: func(seed uint64, _ catalog) Stream { return newSimStream(seed) },
	},
	{
		Name:   "analyst-batch",
		Why:    "compare, simulate sweeps and calibrations: heavy admission class, engine.Pool fan-out and many machines per replica",
		Rate:   60,
		Warm:   analystWarm,
		Stream: func(seed uint64, cat catalog) Stream { return newAnalystStream(seed, cat) },
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// ---- predict-hot ----

var (
	hotModels = []string{"general-homo", "general-het", "mesh-specific"}
	hotPEs    = []int{2, 4, 8, 16, 32, 64, 128, 256}
)

// hotKeys is the 96-key predict-hot set: 4 decks x 3 models x 8 PEs.
func hotKeys() []Request {
	var out []Request
	for _, d := range decks {
		for _, m := range hotModels {
			for _, pe := range hotPEs {
				out = append(out, predictReq(d, pe, m))
			}
		}
	}
	return out
}

// hotStream draws keys Zipf(s=1.1) over a seeded shuffle, so which keys
// are popular changes with the seed but the popularity curve does not.
type hotStream struct {
	keys []Request
	zipf *rand.Zipf
}

func newHotStream(seed uint64) *hotStream {
	r := newRand(seed, 1)
	keys := hotKeys()
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return &hotStream{keys: keys, zipf: rand.NewZipf(r, 1.1, 1, uint64(len(keys)-1))}
}

func (s *hotStream) Next() Request { return s.keys[s.zipf.Uint64()] }

// ---- predict-miss ----

// missPECount is how many PE values each (deck, model) pair draws from:
// [2, 2^17]. 2^17-1 is prime, so i -> (a*i+b) mod missPECount is a
// permutation for any a != 0 — sampling without replacement in O(1)
// memory.
const missPECount = 1<<17 - 1

type missCombo struct {
	deck, model string
	a, b, next  uint64
}

// missStream cycles the 8 (deck, general model) pairs in a seeded order,
// each walking its own seeded permutation of PE values, so no key repeats
// within missPECount draws per pair.
type missStream struct {
	combos []missCombo
	i      int
}

func newMissStream(seed uint64) *missStream {
	r := newRand(seed, 2)
	var combos []missCombo
	for _, d := range decks {
		for _, m := range []string{"general-homo", "general-het"} {
			combos = append(combos, missCombo{deck: d, model: m,
				a: 1 + r.Uint64N(missPECount-1), b: r.Uint64N(missPECount)})
		}
	}
	r.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	return &missStream{combos: combos}
}

func (s *missStream) Next() Request {
	c := &s.combos[s.i%len(s.combos)]
	s.i++
	pe := 2 + (c.a*c.next+c.b)%missPECount
	c.next++
	return predictReq(c.deck, int(pe), c.model)
}

// ---- simulate-mixed ----

var (
	// simWarmPEs with the four decks give the 32 partitions set-up warms.
	simWarmPEs = []int{8, 16, 24, 32, 48, 64, 96, 128}

	// Cold PEs are never-seen partitions in [simColdMin, simColdMax]. The
	// cost of partitioning medium and large doubles above about 380 parts
	// and again above about 700, so a wider range splits cold requests
	// into cost clusters with gaps between them, and p90, which falls
	// among the cold requests, jumped between clusters from seed to seed
	// (232 or 290-370 ms over ten seeds with PEs up to 1100).
	simColdMin, simColdMax = 129, 370
)

// simPattern is the fixed cold/warm order, repeated: one cold request in
// every three, so any schedule whose length is a multiple of simBlock is
// exactly one third cold. Fixed, not drawn, so the cold requests' overlap
// with each other is the same for every seed. Colder mixes put p50 on
// the cliff between the modes: at 40% cold, two slow cold requests
// occupy both connections often enough that the warm requests queued
// behind them tip p50 into the cold mode (6.6-20 ms over ten seeds).
var simPattern = [...]bool{true, false, false}

const simBlock = len(simPattern)

// simKey is one warm simulate request's shape.
type simKey struct {
	deck      string
	pes       int
	iters     int
	ic        string
	serialize bool
}

// evenDraw draws without replacement from n slots ordered by cost: draw k
// takes slot floor(u_k*n) of the golden-ratio sequence u_k = k/phi mod 1,
// or the next free slot after it. Successive points of that sequence
// spread evenly over [0, 1), so every window of draws covers the cost
// range alike.
type evenDraw struct {
	u    float64
	used []bool
	left int
}

const invPhi = 0.6180339887498949

func newEvenDraw(n int) *evenDraw {
	return &evenDraw{used: make([]bool, n), left: n}
}

func (e *evenDraw) next() int {
	if e.left == 0 { // exhausted: start over (far beyond any run's length)
		clear(e.used)
		e.left = len(e.used)
	}
	e.u = math.Mod(e.u+invPhi, 1)
	i := int(e.u * float64(len(e.used)))
	for e.used[i] {
		i = (i + 1) % len(e.used)
	}
	e.used[i] = true
	e.left--
	return i
}

// simStream's seed changes which keys are sent, not how their costs are
// spread: the choices that set a request's cost (PE, iterations, deck
// order) follow fixed even schedules, and the seed picks among keys of
// about equal cost (machine, serialization, order among equal costs).
// With ~100 open-loop samples, seeded cost draws alone moved p50 and p90
// by up to 30% between seeds.
type simStream struct {
	r *rand.Rand
	i int

	warm     []simKey // the warm key pool by cost (iterations x PEs)
	warmDraw *evenDraw

	colds     int
	coldDraws []*evenDraw // per deck, over PEs simColdMin..simColdMax
}

func newSimStream(seed uint64) *simStream {
	r := newRand(seed, 3)
	s := &simStream{r: r}
	for it := 1; it <= 8; it++ {
		for _, d := range decks {
			for _, pe := range simWarmPEs {
				for _, ic := range interconnects {
					for _, ser := range []bool{false, true} {
						if it == 1 && ic == "qsnet" && !ser {
							continue // the set-up key
						}
						s.warm = append(s.warm, simKey{d, pe, it, ic, ser})
					}
				}
			}
		}
	}
	// A warm simulation costs about iterations x PEs.
	r.Shuffle(len(s.warm), func(i, j int) { s.warm[i], s.warm[j] = s.warm[j], s.warm[i] })
	slices.SortStableFunc(s.warm, func(a, b simKey) int { return cmp.Compare(a.iters*a.pes, b.iters*b.pes) })
	s.warmDraw = newEvenDraw(len(s.warm))
	for range decks {
		s.coldDraws = append(s.coldDraws, newEvenDraw(simColdMax-simColdMin+1))
	}
	return s
}

func (s *simStream) Next() Request {
	cold := simPattern[s.i%simBlock]
	s.i++
	if cold {
		// Decks round-robin, one iteration each, so the partitioner does
		// most of a cold request's work.
		d := s.colds % len(decks)
		s.colds++
		pe := simColdMin + s.coldDraws[d].next()
		return simulateReq(KindSimCold, decks[d], pe, 1,
			interconnects[s.r.IntN(len(interconnects))], s.r.IntN(2) == 1)
	}
	k := s.warm[s.warmDraw.next()]
	return simulateReq(KindSimWarm, k.deck, k.pes, k.iters, k.ic, k.serialize)
}

// ---- analyst-batch ----

// analystPEs are the 16 warmed PE counts sweeps and calibrations draw 6
// of.
var analystPEs = []int{8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128}

func analystWarm(cat catalog) ([]Request, []Request) {
	var per []Request
	for _, d := range []string{"medium", "small"} {
		for _, pe := range analystPEs {
			per = append(per, simulateReq(KindSimWarm, d, pe, 1, "qsnet", false))
		}
	}
	// A one-PE compare and a five-PE calibration build every catalog
	// machine and the calibration feature set; the stream's bodies carry
	// seven and six PEs, so neither warm body recurs.
	per = append(per,
		Request{Path: "/v1/compare", Kind: KindCompare,
			Body: mustJSON(compare.Request{PEs: []int{16}, Machines: cat})},
		Request{Path: "/v1/calibrate", Kind: KindCalibrate,
			Body: mustJSON(krak.CalibrateRequest{Folds: 3, Form: krak.FormAuto,
				Synth: &krak.SynthSpec{Op: "simulate", Decks: []string{"small"}, PEs: analystPEs[:5]}})})
	return nil, per
}

// analystStream round-robins compare, sweep and calibrate requests.
// Compare and calibrate bodies are cached by the replicas, so the stream
// never repeats one (a repeat would measure a hit instead of the work).
type analystStream struct {
	r    *rand.Rand
	cat  catalog
	i    int
	seen map[[32]byte]bool
}

func newAnalystStream(seed uint64, cat catalog) *analystStream {
	return &analystStream{r: newRand(seed, 4), cat: cat, seen: map[[32]byte]bool{}}
}

// pick draws k distinct values of from, in draw order.
func (s *analystStream) pick(from []int, k int) []int {
	idx := s.r.Perm(len(from))[:k]
	out := make([]int, k)
	for i, j := range idx {
		out[i] = from[j]
	}
	return out
}

// fresh reports whether body was never returned before, remembering it.
func (s *analystStream) fresh(body []byte) bool {
	sum := sha256.Sum256(body)
	if s.seen[sum] {
		return false
	}
	s.seen[sum] = true
	return true
}

func (s *analystStream) Next() Request {
	i := s.i
	s.i++
	switch i % 3 {
	case 0:
		for {
			pes := []int{16}
			for len(pes) < 7 {
				if pe := 32 + s.r.IntN(4096-32+1); !slices.Contains(pes, pe) {
					pes = append(pes, pe)
				}
			}
			slices.Sort(pes)
			body := mustJSON(compare.Request{PEs: pes, Machines: s.cat})
			if s.fresh(body) {
				return Request{Path: "/v1/compare", Kind: KindCompare, Body: body}
			}
		}
	case 1:
		return Request{Path: "/v1/sweep", Kind: KindSweep, Body: mustJSON(krak.SweepRequest{
			Op: "simulate", Decks: []string{"medium"}, PEs: s.pick(analystPEs, 6),
			Iterations: 1 + s.r.IntN(3),
			Machine:    krak.MachineSpec{Interconnect: interconnects[s.r.IntN(len(interconnects))]},
		})}
	default:
		for {
			pes := s.pick(analystPEs, 6)
			slices.Sort(pes)
			body := mustJSON(krak.CalibrateRequest{Folds: 3 + s.r.IntN(3), Form: krak.FormAuto,
				Synth: &krak.SynthSpec{Op: "simulate", Decks: []string{"small"}, PEs: pes}})
			if s.fresh(body) {
				return Request{Path: "/v1/calibrate", Kind: KindCalibrate, Body: body}
			}
		}
	}
}
