// Package cluster is the measured-platform substrate of the Krak
// reproduction: a discrete-event simulator that plays the role the
// 256-node AlphaServer ES45 / QsNet-I cluster played in the paper. It
// executes one Krak iteration — the 15 phases of Table 1 — over P virtual
// processors, charging computation from the ground-truth cost tables
// (internal/compute) and communication from the piecewise-linear network
// model (internal/netmodel), and reports the per-phase and per-iteration
// times that the validation experiments treat as "measured".
//
// The simulator honors the application's communication semantics as §4
// describes them: asynchronous sends posted to every neighbor, completion
// waits, then blocking receives; per-material boundary-exchange messages
// with the Table 3 size rules; ghost-node updates split into local and
// remote messages; and binary-tree collectives closing every phase. Unlike
// the analytic model (internal/core), the simulator sees the true irregular
// partition, true per-PE material mixtures, per-PE noise, and genuine
// message overlap — exactly the effects the paper's model abstracts away.
package cluster

import (
	"fmt"
	"slices"

	"krak/internal/compute"
	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/phases"
)

// Config parameterizes a simulation.
type Config struct {
	// Net is the interconnect model. Required.
	Net *netmodel.Model

	// Costs is the ground-truth computation table. Required.
	Costs *compute.TruthTable

	// SerializeSends disables message overlap: each message's full wire
	// time is charged to the sender before the next message is posted.
	// This mirrors the accounting of the model's Equation (5), which "does
	// not account for overlapping of messages between different neighbors";
	// the default (false) lets transfers to different neighbors overlap,
	// which is what the real code achieves with asynchronous sends.
	SerializeSends bool

	// Iteration selects the noise stream (think: which timestep is being
	// measured). Simulations with the same configuration and iteration are
	// bit-identical.
	Iteration int
}

// sendOverhead and recvOverhead are the CPU costs of posting one
// asynchronous send and of draining one blocking receive: MPI library
// costs on the ES45 era hardware.
const (
	sendOverhead = 0.6e-6
	recvOverhead = 0.8e-6
)

// Result reports one simulated iteration.
type Result struct {
	// IterationTime is the wall-clock time of the full iteration (s).
	IterationTime float64

	// PhaseTimes[ph-1] is the global duration of each phase, including
	// point-to-point communication and the closing collectives.
	PhaseTimes [phases.Count]float64

	// ComputeTimes[ph-1][pe] is each processor's computation-only time in
	// each phase — the "No MPI" quantity of Figure 2.
	ComputeTimes [phases.Count][]float64

	// CommTimes[ph-1] is the per-phase communication share: phase duration
	// minus the slowest processor's compute time.
	CommTimes [phases.Count]float64

	// CollectiveTime is the total time spent in collectives.
	CollectiveTime float64
}

// Plan is the message layout of every point-to-point pattern of the
// phase table over one partition summary: the boundary exchange and the
// 8- and 16-byte ghost updates, each in run-length form (see pattern).
// A Plan depends on the partition alone, not on the interconnect, and is
// immutable once built, so one Plan serves any number of Runners, nets
// and goroutines; the artifact store keeps one beside each summary it
// holds.
type Plan struct {
	sum *mesh.PartitionSummary

	// patterns holds one layout per point-to-point pattern, in the order
	// the phase table first uses them; patternOf maps a phase index to its
	// pattern. Both are empty on one processor, which sends nothing.
	patterns  []pattern
	patternOf [phases.Count]int

	slots int // the most arrival slots one pattern fills
	runs  int // runs over all patterns: the length of a Runner's wire times
}

// pattern lays out one point-to-point pattern's messages as runs: a run
// is count consecutive messages of one sender to one receiver with the
// same payload, so they share one wire time.
//
// Messages are posted in order: sender ascending, then its neighbors
// ascending, then the order the phases package enumerates one neighbor's
// messages. Sender pe's (sender, receiver) pairs are [pairOff[pe],
// pairOff[pe+1]); pair i posts runs [runOff[i], runOff[i+1]), and its
// messages fill its receiver's arrival slots from base[i] on, one after
// another. Receiver pe owns slots [recvOff[pe], recvOff[pe+1]), which its
// senders fill in posting order.
type pattern struct {
	ghostBytes int // bytes per ghost node; 0 for the boundary exchange
	firstRun   int // index of run 0 in a Runner's wire times

	pairOff []int32
	base    []int32
	runOff  []int32
	runs    []run
	recvOff []int32
}

// run is count messages of bytes each.
type run struct {
	bytes, count int32
}

// NewPlan lays out the point-to-point patterns of sum's partition.
func NewPlan(sum *mesh.PartitionSummary) (*Plan, error) {
	if sum == nil || sum.P <= 0 {
		return nil, fmt.Errorf("cluster: empty partition summary")
	}
	pl := &Plan{sum: sum}
	if sum.P == 1 {
		return pl, nil
	}
	// One Boundary lookup per (pe, neighbor) pair serves every pattern.
	n := 0
	for _, nbs := range sum.NeighborsOf {
		n += len(nbs)
	}
	bounds := make([]*mesh.PairBoundary, 0, n)
	for pe, nbs := range sum.NeighborsOf {
		for _, nb := range nbs {
			bounds = append(bounds, sum.Boundary(pe, nb))
		}
	}
	for i, ph := range phases.All() {
		if !ph.HasPointToPoint() {
			continue
		}
		ghost := ph.GhostUpdateBytes
		if ph.BoundaryExchange {
			ghost = 0
		}
		k := 0
		for k < len(pl.patterns) && pl.patterns[k].ghostBytes != ghost {
			k++
		}
		if k == len(pl.patterns) {
			pat := buildPattern(sum, bounds, ghost)
			pat.firstRun = pl.runs
			pl.runs += len(pat.runs)
			pl.slots = max(pl.slots, int(pat.recvOff[sum.P]))
			pl.patterns = append(pl.patterns, pat)
		}
		pl.patternOf[i] = k
	}
	return pl, nil
}

// Summary returns the partition summary the plan lays out.
func (pl *Plan) Summary() *mesh.PartitionSummary { return pl.sum }

// buildPattern lays out one pattern's messages: a counting pass sizes
// every array exactly, a second pass places each run. bounds holds
// sum.Boundary(pe, nb) for every NeighborsOf entry, flattened in order.
func buildPattern(sum *mesh.PartitionSummary, bounds []*mesh.PairBoundary, ghostBytes int) pattern {
	p := sum.P
	pat := pattern{ghostBytes: ghostBytes}
	var msgs []phases.Message
	enumerate := func(b *mesh.PairBoundary, pe int) []phases.Message {
		if ghostBytes == 0 {
			return phases.AppendBoundaryExchangeMessages(msgs[:0], b)
		}
		return phases.AppendGhostUpdateMessages(msgs[:0], b, pe, ghostBytes)
	}

	pat.pairOff = make([]int32, p+1)
	pat.recvOff = make([]int32, p+1)
	runs := 0
	k := 0
	for pe, nbs := range sum.NeighborsOf {
		pat.pairOff[pe+1] = pat.pairOff[pe] + int32(len(nbs))
		for _, nb := range nbs {
			msgs = enumerate(bounds[k], pe)
			k++
			for m := range msgs {
				if m == 0 || msgs[m].Bytes != msgs[m-1].Bytes {
					runs++
				}
			}
			pat.recvOff[nb+1] += int32(len(msgs))
		}
	}
	for pe := 0; pe < p; pe++ {
		pat.recvOff[pe+1] += pat.recvOff[pe]
	}

	pat.base = make([]int32, k)
	pat.runOff = make([]int32, k+1)
	pat.runs = make([]run, 0, runs)
	next := slices.Clone(pat.recvOff[:p]) // per receiver: its next free slot
	k = 0
	for pe, nbs := range sum.NeighborsOf {
		for _, nb := range nbs {
			msgs = enumerate(bounds[k], pe)
			pat.base[k] = next[nb]
			next[nb] += int32(len(msgs))
			for m, msg := range msgs {
				if m == 0 || msg.Bytes != msgs[m-1].Bytes {
					pat.runs = append(pat.runs, run{bytes: int32(msg.Bytes)})
				}
				pat.runs[len(pat.runs)-1].count++
			}
			k++
			pat.runOff[k] = int32(len(pat.runs))
		}
	}
	return pat
}

// Runner simulates iterations over one Plan. It holds only working
// buffers: the wire time of each of the plan's runs on the last
// interconnect it simulated, each processor's last posting time, and
// each arrival slot's arrival time. They are sized on the first
// multi-processor simulation and reused, so the per-iteration loop — the
// Repeats loop every measurement takes — walks flat arrays and allocates
// nothing but the Result it returns. A Runner is not safe for concurrent
// use; concurrent callers each create their own over the shared Plan.
//
// krakcheck:arena
type Runner struct {
	plan *Plan

	net      *netmodel.Model // the interconnect wire holds times for
	wire     []float64       // per run: its messages' wire time on net
	postDone []float64       // per PE: time its last send was posted
	arrivals []float64       // per slot: a message's arrival time at its receiver
}

// NewRunner returns a reusable simulator over the given plan.
func NewRunner(plan *Plan) *Runner {
	return &Runner{plan: plan}
}

// Simulate runs one iteration of Krak over the partitioned deck described
// by sum. One-shot convenience over NewRunner(NewPlan(sum)).Simulate(cfg);
// loops should hold a Plan and a Runner to amortize the layout and the
// buffers.
func Simulate(sum *mesh.PartitionSummary, cfg Config) (*Result, error) {
	plan, err := NewPlan(sum)
	if err != nil {
		return nil, err
	}
	return NewRunner(plan).Simulate(cfg)
}

// FillComputeTimes sets tab[ph-1][pe] to processor pe's computation time
// in phase ph under the given noise iteration: the "No MPI" quantity of
// Figure 2. Nil rows are first allocated over one backing array of
// phases.Count x sum.P.
func FillComputeTimes(tab *[phases.Count][]float64, sum *mesh.PartitionSummary, costs *compute.TruthTable, iteration int) {
	p := sum.P
	if len(tab[0]) != p {
		flat := make([]float64, phases.Count*p)
		for i := range tab {
			tab[i] = flat[i*p : (i+1)*p : (i+1)*p]
		}
	}
	for i, ph := range phases.All() {
		for pe, cells := range sum.CellsByMaterial[:p] {
			tab[i][pe] = costs.NoisyPhaseTime(ph.Number, cells, pe, iteration)
		}
	}
}

// Simulate runs one iteration of Krak over the runner's plan.
func (r *Runner) Simulate(cfg Config) (*Result, error) {
	if cfg.Net == nil || cfg.Costs == nil {
		return nil, fmt.Errorf("cluster: Config.Net and Config.Costs are required")
	}
	if r.plan == nil {
		return nil, fmt.Errorf("cluster: nil plan")
	}
	sum := r.plan.sum
	p := sum.P
	res := &Result{}
	FillComputeTimes(&res.ComputeTimes, sum, cfg.Costs, cfg.Iteration)
	if p > 1 {
		r.prepare(cfg.Net)
	}

	for phIdx, ph := range phases.All() {
		// 1. Computation.
		comp := res.ComputeTimes[phIdx]
		maxComp := 0.0
		for _, t := range comp {
			if t > maxComp {
				maxComp = t
			}
		}

		// 2. Point-to-point communication, if any.
		var phaseEnd float64
		if ph.HasPointToPoint() && p > 1 {
			phaseEnd = r.simulateP2P(&r.plan.patterns[r.plan.patternOf[phIdx]], comp, cfg.SerializeSends)
		} else {
			phaseEnd = maxComp
		}

		// 3. Collectives close the phase: broadcasts and gathers issued in
		// the phase, then one all-reduce per sync point.
		var coll float64
		for _, b := range ph.BcastBytes {
			coll += cfg.Net.Bcast(p, b)
		}
		for _, b := range ph.GatherBytes {
			coll += cfg.Net.Gather(p, b)
		}
		for _, b := range ph.AllreduceBytes {
			coll += cfg.Net.Allreduce(p, b)
		}
		res.CollectiveTime += coll

		total := phaseEnd + coll
		res.PhaseTimes[phIdx] = total
		res.CommTimes[phIdx] = total - maxComp
		res.IterationTime += total
	}
	return res, nil
}

// prepare sizes the working buffers on first use and brings the wire
// times to net: one MsgTime per run.
func (r *Runner) prepare(net *netmodel.Model) {
	pl := r.plan
	if r.postDone == nil {
		r.postDone = make([]float64, pl.sum.P)
		r.arrivals = make([]float64, pl.slots)
		r.wire = make([]float64, pl.runs)
	}
	if r.net == net {
		return
	}
	r.net = net
	for i := range pl.patterns {
		pat := &pl.patterns[i]
		wire := r.wire[pat.firstRun:]
		for k, rn := range pat.runs {
			wire[k] = net.MsgTime(int(rn.bytes))
		}
	}
}

// simulateP2P plays out one phase's point-to-point traffic over its
// pattern and returns the time at which the slowest processor has
// finished computing, sending, and receiving. Phase-relative time:
// computation starts at 0.
func (r *Runner) simulateP2P(pat *pattern, comp []float64, serialize bool) float64 {
	p := r.plan.sum.P
	arr := r.arrivals
	wire := r.wire[pat.firstRun:]
	for pe := 0; pe < p; pe++ {
		t := comp[pe]
		for i := pat.pairOff[pe]; i < pat.pairOff[pe+1]; i++ {
			s := pat.base[i]
			for k := pat.runOff[i]; k < pat.runOff[i+1]; k++ {
				w := wire[k]
				end := s + pat.runs[k].count
				if serialize {
					// The whole wire time is charged before the next send.
					for ; s < end; s++ {
						t += sendOverhead + w
						arr[s] = t
					}
				} else {
					// Asynchronous: the sender pays only the posting
					// overhead; the transfer proceeds in the background.
					for ; s < end; s++ {
						t += sendOverhead
						arr[s] = t + w
					}
				}
			}
		}
		r.postDone[pe] = t
	}

	// Receives: blocking, drained in arrival order after sends are posted.
	end := 0.0
	for pe := 0; pe < p; pe++ {
		end = max(end, drain(arr[pat.recvOff[pe]:pat.recvOff[pe+1]], r.postDone[pe]))
	}
	return end
}

// drain returns a receiver's CPU clock after it drains arrivals in
// arrival order, starting from cpu, the time its last send was posted:
// each receive waits for its message, then costs recvOverhead. Arrivals
// no later than that post sort first and, the clock never decreasing,
// each adds exactly one recvOverhead, so they fold without sorting; only
// the later ones are sorted. Only the times enter the fold, so the order
// of equal times cannot matter. Reorders arrivals.
//
// The arrivals come as ascending runs: within a run the send clock rises
// and the wire time is one, and a serialized sender's clock rises across
// all its messages. So the late ones are sorted by insertion, which
// costs one comparison per element already in order.
func drain(arrivals []float64, cpu float64) float64 {
	posted := cpu
	late := arrivals[:0]
	for _, a := range arrivals {
		if a <= posted {
			cpu += recvOverhead
		} else {
			late = append(late, a)
		}
	}
	for i := 1; i < len(late); i++ {
		a := late[i]
		j := i
		for ; j > 0 && late[j-1] > a; j-- {
			late[j] = late[j-1]
		}
		late[j] = a
	}
	for _, a := range late {
		cpu = max(cpu, a) + recvOverhead
	}
	return cpu
}

// SimulateIterations runs n iterations (with independent noise) and returns
// the per-iteration results plus the mean iteration time. All iterations
// share one Runner, so the per-iteration simulation is allocation-free
// beyond the Results themselves.
func SimulateIterations(plan *Plan, cfg Config, n int) ([]*Result, float64, error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("cluster: iteration count %d", n)
	}
	runner := NewRunner(plan)
	results := make([]*Result, 0, n)
	var total float64
	for i := 0; i < n; i++ {
		c := cfg
		c.Iteration = cfg.Iteration + i
		r, err := runner.Simulate(c)
		if err != nil {
			return nil, 0, err
		}
		results = append(results, r)
		total += r.IterationTime
	}
	return results, total / float64(n), nil
}
