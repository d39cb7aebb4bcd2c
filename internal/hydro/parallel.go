package hydro

import (
	"fmt"
	"sort"

	"krak/internal/mesh"
	"krak/internal/mpisim"
)

// NeighborLink describes one rank's connection to a neighboring rank.
type NeighborLink struct {
	// Rank is the neighboring rank.
	Rank int
	// SharedNodes lists local node indices shared with the neighbor,
	// ordered by global node id so both sides agree on message layout.
	SharedNodes []int32
	// SharedFaces is the number of mesh faces on the common boundary
	// (determines the phase 2 payload, 12 bytes per face).
	SharedFaces int
}

// Subgrid is one rank's portion of a partitioned deck.
type Subgrid struct {
	// Deck holds the local mesh (cells and nodes remapped to local ids;
	// connectivity carried by CellNodes only) plus the global detonator.
	Deck *mesh.Deck
	// GlobalCells maps local cell id to global cell id.
	GlobalCells []int32
	// GlobalNodes maps local node id to global node id.
	GlobalNodes []int32
	// Neighbors lists adjacent ranks in ascending order.
	Neighbors []NeighborLink
	// OwnerRank[l] is the lowest rank sharing local node l (== this rank
	// for interior nodes).
	OwnerRank []int
}

// ExtractSubgrid builds rank's subgrid of a deck under a partition vector.
func ExtractSubgrid(d *mesh.Deck, part []int, p, rank int) (*Subgrid, error) {
	m := d.Mesh
	if len(part) != m.NumCells() {
		return nil, fmt.Errorf("hydro: partition length %d != %d cells", len(part), m.NumCells())
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("hydro: rank %d out of range", rank)
	}
	// Local cells in global order.
	var cells []int32
	for c, pe := range part {
		if pe == rank {
			cells = append(cells, int32(c))
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("hydro: rank %d owns no cells", rank)
	}
	// Local nodes: every node of an owned cell, in ascending global order.
	nodeSet := map[int32]bool{}
	for _, c := range cells {
		for _, n := range m.CellNodes[c] {
			nodeSet[n] = true
		}
	}
	globalNodes := make([]int32, 0, len(nodeSet))
	for n := range nodeSet {
		globalNodes = append(globalNodes, n)
	}
	sort.Slice(globalNodes, func(i, j int) bool { return globalNodes[i] < globalNodes[j] })
	localOf := make(map[int32]int32, len(globalNodes))
	for l, g := range globalNodes {
		localOf[g] = int32(l)
	}

	// Local mesh.
	lm := &mesh.Mesh{
		NodeX:        make([]float64, len(globalNodes)),
		NodeY:        make([]float64, len(globalNodes)),
		CellNodes:    make([][4]int32, len(cells)),
		CellMaterial: make([]mesh.Material, len(cells)),
	}
	for l, g := range globalNodes {
		lm.NodeX[l] = m.NodeX[g]
		lm.NodeY[l] = m.NodeY[g]
	}
	for lc, gc := range cells {
		for i, gn := range m.CellNodes[gc] {
			lm.CellNodes[lc][i] = localOf[gn]
		}
		lm.CellMaterial[lc] = m.CellMaterial[gc]
	}

	// Shared nodes per neighboring rank, via global node incidence.
	nodeRanks := map[int32][]int{}
	nc := m.NodeCells()
	for _, g := range globalNodes {
		var ranks []int
		for _, c := range nc[g] {
			pr := part[c]
			dup := false
			for _, r := range ranks {
				if r == pr {
					dup = true
					break
				}
			}
			if !dup {
				ranks = append(ranks, pr)
			}
		}
		sort.Ints(ranks)
		nodeRanks[g] = ranks
	}
	owner := make([]int, len(globalNodes))
	sharedBy := map[int][]int32{} // neighbor rank -> local node ids
	for l, g := range globalNodes {
		ranks := nodeRanks[g]
		owner[l] = ranks[0]
		for _, r := range ranks {
			if r != rank {
				sharedBy[r] = append(sharedBy[r], int32(l))
			}
		}
	}
	// Shared faces per neighbor.
	faceCount := map[int]int{}
	for _, f := range m.Faces {
		if !f.Interior() {
			continue
		}
		pa, pb := part[f.C0], part[f.C1]
		if pa == rank && pb != rank {
			faceCount[pb]++
		} else if pb == rank && pa != rank {
			faceCount[pa]++
		}
	}
	neighborRanks := make([]int, 0, len(sharedBy))
	for r := range sharedBy {
		neighborRanks = append(neighborRanks, r)
	}
	sort.Ints(neighborRanks)
	links := make([]NeighborLink, 0, len(neighborRanks))
	for _, r := range neighborRanks {
		nodes := sharedBy[r]
		// Already in ascending local order == ascending global order.
		links = append(links, NeighborLink{Rank: r, SharedNodes: nodes, SharedFaces: faceCount[r]})
	}

	return &Subgrid{
		Deck: &mesh.Deck{
			Name:       fmt.Sprintf("%s/rank%d", d.Name, rank),
			Mesh:       lm,
			DetonatorX: d.DetonatorX,
			DetonatorY: d.DetonatorY,
		},
		GlobalCells: cells,
		GlobalNodes: globalNodes,
		Neighbors:   links,
		OwnerRank:   owner,
	}, nil
}

// parallelExchanger implements Exchanger over mpisim. Staging buffers are
// allocated once at construction and reused every step, so the per-step
// exchange path allocates nothing.
type parallelExchanger struct {
	comm *mpisim.Comm
	sub  *Subgrid
	// epoch separates the collectives of successive Step calls.
	epoch int
	// sendBuf stages outgoing payloads and recvBuf drains incoming ones
	// (via RecvInto), each sized for the largest message any link carries
	// (3 values per shared face or 2 per shared node). One staging buffer
	// serves every neighbor because mpisim's Send copies the payload into
	// its transport buffer before returning, so the buffer is free for
	// reuse the moment Isend returns.
	sendBuf []float64
	recvBuf []float64
	// batch posts each exchange's sends and reports the first failure.
	batch mpisim.Batch
}

// newParallelExchanger sizes the exchanger's staging buffers for sub.
func newParallelExchanger(comm *mpisim.Comm, sub *Subgrid) *parallelExchanger {
	x := &parallelExchanger{comm: comm, sub: sub}
	maxLen := 0
	for _, nb := range sub.Neighbors {
		n := 3 * nb.SharedFaces
		if v := 2 * len(nb.SharedNodes); v > n {
			n = v
		}
		if n > maxLen {
			maxLen = n
		}
	}
	x.sendBuf = make([]float64, maxLen)
	x.recvBuf = make([]float64, maxLen)
	return x
}

// Tags for point-to-point phases; user tag space below 1<<20.
const (
	tagBoundary = 1000
	tagShared   = 2000
	tagVel      = 3000
)

// Rank implements Exchanger.
func (x *parallelExchanger) Rank() int { return x.comm.Rank() }

// BoundaryExchange implements Exchanger: per neighbor, exchange three
// values per shared face (pressure, viscosity, density summaries — 12-byte
// face payloads region-wide, per §4.1). The payload feeds boundary
// diagnostics; cross-rank coupling itself flows through the ghost-node
// sums.
func (x *parallelExchanger) BoundaryExchange(s *State) error {
	// Summaries of this subgrid's state.
	var meanP, meanQ, meanRho float64
	n := float64(s.Mesh.NumCells())
	for c := 0; c < s.Mesh.NumCells(); c++ {
		meanP += s.P[c]
		meanQ += s.Q[c]
		meanRho += s.Rho[c]
	}
	if n > 0 {
		meanP /= n
		meanQ /= n
		meanRho /= n
	}
	// Asynchronous sends to every neighbor, a completion wait, then
	// blocking receives — the §4 communication structure.
	for _, nb := range x.sub.Neighbors {
		payload := x.sendBuf[:3*nb.SharedFaces]
		for i := 0; i < nb.SharedFaces; i++ {
			payload[3*i] = meanP
			payload[3*i+1] = meanQ
			payload[3*i+2] = meanRho
		}
		x.batch.Isend(x.comm, nb.Rank, tagBoundary, payload)
	}
	if err := x.batch.Waitall(); err != nil {
		return err
	}
	for _, nb := range x.sub.Neighbors {
		got, err := x.comm.RecvInto(nb.Rank, tagBoundary, x.recvBuf)
		if err != nil {
			return err
		}
		x.recvBuf = got[:cap(got)]
		if len(got) != 3*nb.SharedFaces {
			return fmt.Errorf("hydro: boundary payload %d from rank %d, want %d",
				len(got), nb.Rank, 3*nb.SharedFaces)
		}
	}
	return nil
}

// SumShared implements Exchanger: exchange partial values for shared nodes
// with every neighbor, accumulating into total. Partials are sent, so
// corner nodes shared by three or more ranks sum correctly.
func (x *parallelExchanger) SumShared(partial, total []float64, tag int) error {
	copy(total, partial)
	for _, nb := range x.sub.Neighbors {
		buf := x.sendBuf[:len(nb.SharedNodes)]
		for i, l := range nb.SharedNodes {
			buf[i] = partial[l]
		}
		x.batch.Isend(x.comm, nb.Rank, tagShared+tag, buf)
	}
	if err := x.batch.Waitall(); err != nil {
		return err
	}
	for _, nb := range x.sub.Neighbors {
		got, err := x.comm.RecvInto(nb.Rank, tagShared+tag, x.recvBuf)
		if err != nil {
			return err
		}
		x.recvBuf = got[:cap(got)]
		if len(got) != len(nb.SharedNodes) {
			return fmt.Errorf("hydro: shared payload %d from rank %d, want %d",
				len(got), nb.Rank, len(nb.SharedNodes))
		}
		for i, l := range nb.SharedNodes {
			total[l] += got[i]
		}
	}
	return nil
}

// SyncGhostVelocities implements Exchanger: the owning rank's velocities
// win on shared nodes, making the integration bit-reproducible across rank
// counts' partial-sum orderings.
func (x *parallelExchanger) SyncGhostVelocities(s *State) error {
	me := x.comm.Rank()
	for _, nb := range x.sub.Neighbors {
		buf := x.sendBuf[:2*len(nb.SharedNodes)]
		for i, l := range nb.SharedNodes {
			buf[2*i] = s.U[l]
			buf[2*i+1] = s.V[l]
		}
		x.batch.Isend(x.comm, nb.Rank, tagVel, buf)
	}
	if err := x.batch.Waitall(); err != nil {
		return err
	}
	for _, nb := range x.sub.Neighbors {
		got, err := x.comm.RecvInto(nb.Rank, tagVel, x.recvBuf)
		if err != nil {
			return err
		}
		x.recvBuf = got[:cap(got)]
		for i, l := range nb.SharedNodes {
			if x.sub.OwnerRank[l] == nb.Rank && x.sub.OwnerRank[l] != me {
				s.U[l] = got[2*i]
				s.V[l] = got[2*i+1]
			}
		}
	}
	return nil
}

// AllreduceMin implements Exchanger.
func (x *parallelExchanger) AllreduceMin(v float64) (float64, error) {
	x.epoch++
	return x.comm.AllreduceMinScalar(v, x.epoch)
}

// AllreduceMax implements Exchanger.
func (x *parallelExchanger) AllreduceMax(v float64) (float64, error) {
	x.epoch++
	return x.comm.AllreduceMaxScalar(v, x.epoch)
}

// AllreduceSum implements Exchanger.
func (x *parallelExchanger) AllreduceSum(v float64) (float64, error) {
	x.epoch++
	return x.comm.AllreduceSumScalar(v, x.epoch)
}

// Bcast implements Exchanger.
func (x *parallelExchanger) Bcast(vals []float64) ([]float64, error) {
	x.epoch++
	return x.comm.Bcast(0, vals, x.epoch)
}

// Gather implements Exchanger.
func (x *parallelExchanger) Gather(vals []float64) ([][]float64, error) {
	x.epoch++
	return x.comm.Gather(0, vals, x.epoch)
}

// ParallelResult aggregates a parallel run.
type ParallelResult struct {
	// Diag sums the conserved quantities over ranks (MaxPressure and
	// MinVolume are global extrema; Time/Cycle from rank 0).
	Diag Diagnostics
	// PhaseSeconds holds, per phase, the maximum accumulated wall-clock
	// time over ranks.
	PhaseSeconds PhaseSeconds
}

// RunParallel advances a partitioned deck by steps timesteps on p mpisim
// ranks and returns aggregated diagnostics.
func RunParallel(d *mesh.Deck, part []int, p, steps int, opt Options) (*ParallelResult, error) {
	results := make([]*State, p)
	timers := make([]PhaseSeconds, p)
	err := mpisim.Run(p, func(c *mpisim.Comm) error {
		sub, err := ExtractSubgrid(d, part, p, c.Rank())
		if err != nil {
			return err
		}
		st, err := NewState(sub.Deck, opt)
		if err != nil {
			return err
		}
		// Mask corner masses so kinetic-energy partials do not double
		// count shared nodes: scale the local share by cell ownership
		// only (the partial arrays already hold only local cells'
		// contributions, so nothing further is needed).
		ex := newParallelExchanger(c, sub)
		for i := 0; i < steps; i++ {
			if err := Step(st, ex, &timers[c.Rank()]); err != nil {
				return err
			}
		}
		results[c.Rank()] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &ParallelResult{}
	for r, st := range results {
		d := st.Diag()
		out.Diag.TotalMass += d.TotalMass
		out.Diag.InternalEnergy += d.InternalEnergy
		out.Diag.KineticEnergy += d.KineticEnergy
		out.Diag.EnergyReleased += d.EnergyReleased
		out.Diag.BurnedCells += d.BurnedCells
		if d.MaxPressure > out.Diag.MaxPressure {
			out.Diag.MaxPressure = d.MaxPressure
		}
		if r == 0 {
			out.Diag.MinVolume = d.MinVolume
			out.Diag.Time = d.Time
			out.Diag.Cycle = d.Cycle
		} else if d.MinVolume < out.Diag.MinVolume {
			out.Diag.MinVolume = d.MinVolume
		}
		for ph := range timers[r] {
			if timers[r][ph] > out.PhaseSeconds[ph] {
				out.PhaseSeconds[ph] = timers[r][ph]
			}
		}
	}
	return out, nil
}
