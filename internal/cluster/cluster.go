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

// Runner simulates iterations over one partition summary. On its first
// multi-processor simulation it lays out every point-to-point pattern of
// the phase table as an exchange plan (see exchangePlan); later runs reuse
// the plans and working buffers, so the per-iteration loop — the Repeats
// loop every measurement takes — walks flat arrays and allocates nothing
// but the Result it returns. A Runner is not safe for concurrent use;
// concurrent callers each create their own (the summary itself is
// read-only and freely shared).
//
// krakcheck:arena
type Runner struct {
	sum *mesh.PartitionSummary

	// plans holds one exchange plan per point-to-point pattern: the
	// boundary exchange and the 8- and 16-byte ghost updates. planOf maps
	// a phase index to its pattern's plan; nPlans counts the built ones.
	plans  [3]exchangePlan
	planOf [phases.Count]int
	nPlans int

	postDone []float64 // per PE: time its last send was posted
	arrivals []float64 // per slot: a message's arrival time at its receiver
}

// exchangePlan is the message layout of one point-to-point pattern over
// the runner's partition, in two CSR views (a flat array plus per-PE
// start offsets) of the same messages.
//
// Messages are numbered in posting order: sender ascending, then its
// neighbors ascending, then the order the phases package enumerates one
// neighbor's messages. Sender pe posts messages [sendOff[pe],
// sendOff[pe+1]).
//
// Each message lands in an arrival slot. Receiver pe owns slots
// [recvOff[pe], recvOff[pe+1]), filled in posting order.
//
// krakcheck:arena
type exchangePlan struct {
	ghostBytes int // bytes per ghost node; 0 for the boundary exchange

	sendOff []int
	slot    []int32   // per message: its arrival slot
	wire    []float64 // per message: its wire time on net
	net     *netmodel.Model

	recvOff []int
	bytes   []int // per slot: the payload
}

// NewRunner returns a reusable simulator for the given partition summary.
func NewRunner(sum *mesh.PartitionSummary) *Runner {
	return &Runner{sum: sum}
}

// Simulate runs one iteration of Krak over the partitioned deck described
// by sum. One-shot convenience over NewRunner(sum).Simulate(cfg); loops
// should hold a Runner to amortize its plans and buffers.
func Simulate(sum *mesh.PartitionSummary, cfg Config) (*Result, error) {
	return NewRunner(sum).Simulate(cfg)
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

// Simulate runs one iteration of Krak over the runner's partition summary.
func (r *Runner) Simulate(cfg Config) (*Result, error) {
	if cfg.Net == nil || cfg.Costs == nil {
		return nil, fmt.Errorf("cluster: Config.Net and Config.Costs are required")
	}
	sum := r.sum
	if sum == nil || sum.P <= 0 {
		return nil, fmt.Errorf("cluster: empty partition summary")
	}
	p := sum.P
	res := &Result{}
	FillComputeTimes(&res.ComputeTimes, sum, cfg.Costs, cfg.Iteration)
	if p > 1 {
		r.preparePlans(cfg.Net)
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
			phaseEnd = r.simulateP2P(&r.plans[r.planOf[phIdx]], comp, cfg.SerializeSends)
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

// preparePlans builds the exchange plans on first use, sizes the working
// buffers for them, and brings every plan's wire times to net.
func (r *Runner) preparePlans(net *netmodel.Model) {
	sum := r.sum
	if r.nPlans == 0 {
		// One Boundary lookup per (pe, neighbor) pair serves every plan.
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
		slots := 0
		for i, ph := range phases.All() {
			if !ph.HasPointToPoint() {
				continue
			}
			ghost := ph.GhostUpdateBytes
			if ph.BoundaryExchange {
				ghost = 0
			}
			k := 0
			for k < r.nPlans && r.plans[k].ghostBytes != ghost {
				k++
			}
			if k == r.nPlans {
				r.plans[k].build(sum, bounds, ghost)
				slots = max(slots, len(r.plans[k].bytes))
				r.nPlans++
			}
			r.planOf[i] = k
		}
		r.postDone = make([]float64, sum.P)
		r.arrivals = make([]float64, slots)
	}
	for k := 0; k < r.nPlans; k++ {
		if pl := &r.plans[k]; pl.net != net {
			pl.net = net
			for m, s := range pl.slot {
				pl.wire[m] = net.MsgTime(pl.bytes[s])
			}
		}
	}
}

// build lays out the pattern's messages: a counting pass sizes every
// array exactly, a second pass places each message. bounds holds
// sum.Boundary(pe, nb) for every NeighborsOf entry, flattened in order.
func (pl *exchangePlan) build(sum *mesh.PartitionSummary, bounds []*mesh.PairBoundary, ghostBytes int) {
	p := sum.P
	pl.ghostBytes = ghostBytes
	var msgs []phases.Message
	enumerate := func(b *mesh.PairBoundary, pe int) []phases.Message {
		if ghostBytes == 0 {
			return phases.AppendBoundaryExchangeMessages(msgs[:0], b)
		}
		return phases.AppendGhostUpdateMessages(msgs[:0], b, pe, ghostBytes)
	}

	pl.sendOff = make([]int, p+1)
	pl.recvOff = make([]int, p+1)
	k := 0
	for pe, nbs := range sum.NeighborsOf {
		for _, nb := range nbs {
			msgs = enumerate(bounds[k], pe)
			k++
			pl.sendOff[pe+1] += len(msgs)
			pl.recvOff[nb+1] += len(msgs)
		}
	}
	for pe := 0; pe < p; pe++ {
		pl.sendOff[pe+1] += pl.sendOff[pe]
		pl.recvOff[pe+1] += pl.recvOff[pe]
	}

	n := pl.sendOff[p]
	pl.slot = make([]int32, n)
	pl.wire = make([]float64, n)
	pl.bytes = make([]int, n)
	next := make([]int, p) // per receiver: its next free slot
	copy(next, pl.recvOff)
	m := 0
	k = 0
	for pe, nbs := range sum.NeighborsOf {
		for _, nb := range nbs {
			msgs = enumerate(bounds[k], pe)
			k++
			for _, msg := range msgs {
				s := next[nb]
				next[nb]++
				pl.slot[m] = int32(s)
				pl.bytes[s] = msg.Bytes
				m++
			}
		}
	}
}

// simulateP2P plays out one phase's point-to-point traffic over its plan
// and returns the time at which the slowest processor has finished
// computing, sending, and receiving. Phase-relative time: computation
// starts at 0.
func (r *Runner) simulateP2P(pl *exchangePlan, comp []float64, serialize bool) float64 {
	p := r.sum.P
	arr := r.arrivals
	for pe := 0; pe < p; pe++ {
		t := comp[pe]
		for m := pl.sendOff[pe]; m < pl.sendOff[pe+1]; m++ {
			if serialize {
				// The whole wire time is charged before the next send.
				t += sendOverhead + pl.wire[m]
				arr[pl.slot[m]] = t
			} else {
				// Asynchronous: the sender pays only the posting overhead;
				// the transfer proceeds in the background.
				t += sendOverhead
				arr[pl.slot[m]] = t + pl.wire[m]
			}
		}
		r.postDone[pe] = t
	}

	// Receives: blocking, drained in arrival order after sends are posted.
	end := 0.0
	for pe := 0; pe < p; pe++ {
		end = max(end, drain(arr[pl.recvOff[pe]:pl.recvOff[pe+1]], r.postDone[pe]))
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
	slices.Sort(late)
	for _, a := range late {
		cpu = max(cpu, a) + recvOverhead
	}
	return cpu
}

// SimulateIterations runs n iterations (with independent noise) and returns
// the per-iteration results plus the mean iteration time. All iterations
// share one Runner, so the per-iteration simulation is allocation-free
// beyond the Results themselves.
func SimulateIterations(sum *mesh.PartitionSummary, cfg Config, n int) ([]*Result, float64, error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("cluster: iteration count %d", n)
	}
	runner := NewRunner(sum)
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
