package cluster

import (
	"slices"

	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/phases"
)

// oracleRunner is the simulator as it was before plans became run-length
// artifacts: one message per array entry, each with its own wire time,
// and receives drained through slices.Sort. The exactness tests hold the
// Runner to it bit for bit, as the render tests hold RenderJSON to
// json.MarshalIndent.
type oracleRunner struct {
	sum *mesh.PartitionSummary

	plans  [3]oraclePlan
	planOf [phases.Count]int
	nPlans int

	postDone []float64
	arrivals []float64
}

// oraclePlan is one point-to-point pattern, one entry per message. Sender
// pe posts messages [sendOff[pe], sendOff[pe+1]); message m lands in
// arrival slot slot[m]; receiver pe owns slots [recvOff[pe],
// recvOff[pe+1]).
type oraclePlan struct {
	ghostBytes int

	sendOff []int
	slot    []int32
	wire    []float64
	net     *netmodel.Model

	recvOff []int
	bytes   []int
}

func (r *oracleRunner) simulate(cfg Config) *Result {
	sum := r.sum
	p := sum.P
	res := &Result{}
	FillComputeTimes(&res.ComputeTimes, sum, cfg.Costs, cfg.Iteration)
	if p > 1 {
		r.preparePlans(cfg.Net)
	}
	for phIdx, ph := range phases.All() {
		comp := res.ComputeTimes[phIdx]
		maxComp := 0.0
		for _, t := range comp {
			if t > maxComp {
				maxComp = t
			}
		}
		var phaseEnd float64
		if ph.HasPointToPoint() && p > 1 {
			phaseEnd = r.simulateP2P(&r.plans[r.planOf[phIdx]], comp, cfg.SerializeSends)
		} else {
			phaseEnd = maxComp
		}
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
	return res
}

func (r *oracleRunner) preparePlans(net *netmodel.Model) {
	sum := r.sum
	if r.nPlans == 0 {
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
				r.plans[k].build(sum, ghost)
				r.nPlans++
			}
			r.planOf[i] = k
		}
		slots := 0
		for k := 0; k < r.nPlans; k++ {
			slots = max(slots, len(r.plans[k].bytes))
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

func (pl *oraclePlan) build(sum *mesh.PartitionSummary, ghostBytes int) {
	p := sum.P
	pl.ghostBytes = ghostBytes
	enumerate := func(pe, nb int) []phases.Message {
		if ghostBytes == 0 {
			return phases.AppendBoundaryExchangeMessages(nil, sum.Boundary(pe, nb))
		}
		return phases.AppendGhostUpdateMessages(nil, sum.Boundary(pe, nb), pe, ghostBytes)
	}
	pl.sendOff = make([]int, p+1)
	pl.recvOff = make([]int, p+1)
	for pe, nbs := range sum.NeighborsOf {
		for _, nb := range nbs {
			n := len(enumerate(pe, nb))
			pl.sendOff[pe+1] += n
			pl.recvOff[nb+1] += n
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
	next := slices.Clone(pl.recvOff[:p])
	m := 0
	for pe, nbs := range sum.NeighborsOf {
		for _, nb := range nbs {
			for _, msg := range enumerate(pe, nb) {
				s := next[nb]
				next[nb]++
				pl.slot[m] = int32(s)
				pl.bytes[s] = msg.Bytes
				m++
			}
		}
	}
}

func (r *oracleRunner) simulateP2P(pl *oraclePlan, comp []float64, serialize bool) float64 {
	p := r.sum.P
	arr := r.arrivals
	for pe := 0; pe < p; pe++ {
		t := comp[pe]
		for m := pl.sendOff[pe]; m < pl.sendOff[pe+1]; m++ {
			if serialize {
				t += sendOverhead + pl.wire[m]
				arr[pl.slot[m]] = t
			} else {
				t += sendOverhead
				arr[pl.slot[m]] = t + pl.wire[m]
			}
		}
		r.postDone[pe] = t
	}
	end := 0.0
	for pe := 0; pe < p; pe++ {
		end = max(end, oracleDrain(arr[pl.recvOff[pe]:pl.recvOff[pe+1]], r.postDone[pe]))
	}
	return end
}

func oracleDrain(arrivals []float64, cpu float64) float64 {
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
