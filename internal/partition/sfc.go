package partition

import (
	"fmt"
	"sort"
)

// SFC partitions by ordering vertices along a Hilbert space-filling curve
// and cutting the order into k equal-weight chunks. Space-filling-curve
// partitioning was the main lightweight alternative to multilevel graph
// methods in the paper's era: near-perfect balance, good locality, no graph
// needed — but typically ~20-40% worse edge cuts than METIS.
type SFC struct{}

// hilbertOrder is the Hilbert curve's refinement depth in bits per axis.
const hilbertOrder = 16

// Name implements Partitioner.
func (SFC) Name() string { return "hilbert-sfc" }

// Partition implements Partitioner. The graph must carry coordinates.
func (SFC) Partition(g *Graph, k int) ([]int, error) {
	if err := validateArgs(g, k); err != nil {
		return nil, err
	}
	if len(g.CoordX) != g.NumVertices() || len(g.CoordY) != g.NumVertices() {
		return nil, fmt.Errorf("partition: sfc requires vertex coordinates")
	}
	n := g.NumVertices()

	// Normalize coordinates onto the [0, 2^hilbertOrder) integer lattice.
	minX, maxX := g.CoordX[0], g.CoordX[0]
	minY, maxY := g.CoordY[0], g.CoordY[0]
	for v := 1; v < n; v++ {
		if g.CoordX[v] < minX {
			minX = g.CoordX[v]
		}
		if g.CoordX[v] > maxX {
			maxX = g.CoordX[v]
		}
		if g.CoordY[v] < minY {
			minY = g.CoordY[v]
		}
		if g.CoordY[v] > maxY {
			maxY = g.CoordY[v]
		}
	}
	side := uint32(1) << hilbertOrder
	scale := func(v, lo, hi float64) uint32 {
		if hi <= lo {
			return 0
		}
		x := (v - lo) / (hi - lo) * float64(side-1)
		if x < 0 {
			return 0
		}
		if x > float64(side-1) {
			return side - 1
		}
		return uint32(x)
	}

	type keyed struct {
		v   int32
		key uint64
	}
	keys := make([]keyed, n)
	for v := 0; v < n; v++ {
		hx := scale(g.CoordX[v], minX, maxX)
		hy := scale(g.CoordY[v], minY, maxY)
		keys[v] = keyed{v: int32(v), key: hilbertD(hilbertOrder, hx, hy)}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].key != keys[b].key {
			return keys[a].key < keys[b].key
		}
		return keys[a].v < keys[b].v
	})

	// Cut the curve order into k equal-weight chunks.
	part := make([]int, n)
	var total int64
	for _, w := range g.VWgt {
		total += int64(w)
	}
	var acc int64
	for _, kv := range keys {
		p := int(acc * int64(k) / total)
		if p >= k {
			p = k - 1
		}
		part[kv.v] = p
		acc += int64(g.VWgt[kv.v])
	}
	return part, nil
}

// hilbertD maps lattice coordinates (x, y) to their distance along the
// Hilbert curve of the given order (the classic rot/reflect walk).
func hilbertD(order int, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}
