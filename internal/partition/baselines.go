package partition

import (
	"fmt"
	"sort"

	"krak/internal/stats"
)

// RCB is recursive coordinate bisection: vertices are split at the weighted
// median along the longer coordinate axis, recursively, into k parts. It
// produces compact box-like subdomains — a classic geometric baseline
// against the graph-based multilevel partitioner.
type RCB struct{}

// Name implements Partitioner.
func (RCB) Name() string { return "rcb" }

// Partition implements Partitioner. The graph must carry coordinates.
func (RCB) Partition(g *Graph, k int) ([]int, error) {
	if err := validateArgs(g, k); err != nil {
		return nil, err
	}
	if len(g.CoordX) != g.NumVertices() || len(g.CoordY) != g.NumVertices() {
		return nil, fmt.Errorf("partition: rcb requires vertex coordinates")
	}
	part := make([]int, g.NumVertices())
	idx := make([]int32, g.NumVertices())
	for i := range idx {
		idx[i] = int32(i)
	}
	rcbSplit(g, idx, k, 0, part)
	return part, nil
}

func rcbSplit(g *Graph, idx []int32, k, base int, part []int) {
	if k == 1 {
		for _, v := range idx {
			part[v] = base
		}
		return
	}
	kL := k / 2
	kR := k - kL
	// Choose the axis with the larger extent.
	minX, maxX := g.CoordX[idx[0]], g.CoordX[idx[0]]
	minY, maxY := g.CoordY[idx[0]], g.CoordY[idx[0]]
	for _, v := range idx {
		x, y := g.CoordX[v], g.CoordY[v]
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	coord := g.CoordX
	if maxY-minY > maxX-minX {
		coord = g.CoordY
	}
	sort.Slice(idx, func(a, b int) bool { return coord[idx[a]] < coord[idx[b]] })
	// Split at the weighted position proportional to kL/k.
	var total int64
	for _, v := range idx {
		total += int64(g.VWgt[v])
	}
	target := total * int64(kL) / int64(k)
	var acc int64
	split := 0
	for i, v := range idx {
		acc += int64(g.VWgt[v])
		if acc >= target {
			split = i + 1
			break
		}
	}
	if split < kL {
		split = kL
	}
	if len(idx)-split < kR {
		split = len(idx) - kR
	}
	rcbSplit(g, idx[:split], kL, base, part)
	rcbSplit(g, idx[split:], kR, base+kL, part)
}

// Strips partitions by sorting vertices along one axis and cutting into k
// equal-weight slabs. The paper's decks partitioned this way produce long
// skinny subdomains with large boundaries — the "bad partitioner" baseline.
type Strips struct {
	// Vertical selects slabs stacked along y instead of x.
	Vertical bool
}

// Name implements Partitioner.
func (s Strips) Name() string {
	if s.Vertical {
		return "strips-y"
	}
	return "strips-x"
}

// Partition implements Partitioner. The graph must carry coordinates.
func (s Strips) Partition(g *Graph, k int) ([]int, error) {
	if err := validateArgs(g, k); err != nil {
		return nil, err
	}
	if len(g.CoordX) != g.NumVertices() || len(g.CoordY) != g.NumVertices() {
		return nil, fmt.Errorf("partition: strips requires vertex coordinates")
	}
	coord := g.CoordX
	if s.Vertical {
		coord = g.CoordY
	}
	n := g.NumVertices()
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return coord[idx[a]] < coord[idx[b]] })
	part := make([]int, n)
	var total int64
	for _, w := range g.VWgt {
		total += int64(w)
	}
	var acc int64
	for _, v := range idx {
		p := int(acc * int64(k) / total)
		if p >= k {
			p = k - 1
		}
		part[v] = p
		acc += int64(g.VWgt[v])
	}
	return part, nil
}

// Random assigns vertices to parts uniformly at random (balanced via a
// shuffled round-robin). It is the worst-case baseline: perfectly balanced,
// maximally fragmented boundaries.
type Random struct {
	Seed uint64
}

// Name implements Partitioner.
func (Random) Name() string { return "random" }

// Partition implements Partitioner.
func (r Random) Partition(g *Graph, k int) ([]int, error) {
	if err := validateArgs(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	rng := stats.Derive(r.Seed, 0x52a9d)
	order := randomOrder(n, rng)
	part := make([]int, n)
	for i, v := range order {
		part[v] = i % k
	}
	return part, nil
}

// Quality summarizes a partition for reports and ablations.
type Quality struct {
	Algorithm string
	K         int
	EdgeCut   int64
	Imbalance float64
}

// QualityOf reports the quality of an existing assignment — the single
// place a Quality record is assembled, shared by Evaluate and callers
// that already hold a (possibly cached) partition vector.
func QualityOf(name string, g *Graph, part []int, k int) Quality {
	return Quality{
		Algorithm: name,
		K:         k,
		EdgeCut:   Cut(g, part),
		Imbalance: Imbalance(g, part, k),
	}
}
