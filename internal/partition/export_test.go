package partition

import "fmt"

// Validate checks CSR invariants: monotone Xadj, in-range neighbors, no
// self-loops, symmetric adjacency with matching weights. It is the oracle
// the graph-construction tests check their graphs against.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("partition: empty Xadj")
	}
	if len(g.VWgt) != n {
		return fmt.Errorf("partition: VWgt length %d != vertex count %d", len(g.VWgt), n)
	}
	if g.Xadj[0] != 0 || int(g.Xadj[n]) != len(g.Adjncy) {
		return fmt.Errorf("partition: bad Xadj bounds")
	}
	if len(g.AdjWgt) != len(g.Adjncy) {
		return fmt.Errorf("partition: AdjWgt length mismatch")
	}
	type edge struct{ u, v int32 }
	weights := make(map[edge]int32, len(g.Adjncy))
	for v := 0; v < n; v++ {
		if g.Xadj[v] > g.Xadj[v+1] {
			return fmt.Errorf("partition: Xadj not monotone at %d", v)
		}
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adjncy[i]
			if u < 0 || int(u) >= n {
				return fmt.Errorf("partition: vertex %d has out-of-range neighbor %d", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("partition: self-loop at %d", v)
			}
			weights[edge{int32(v), u}] = g.AdjWgt[i]
		}
	}
	// Check symmetry by walking the adjacency arrays in vertex order, not
	// by ranging over the map: the first asymmetric edge reported must be
	// the same on every run so error messages are reproducible.
	for v := 0; v < n; v++ {
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adjncy[i]
			if weights[edge{u, int32(v)}] != g.AdjWgt[i] {
				return fmt.Errorf("partition: asymmetric edge (%d,%d)", v, u)
			}
		}
	}
	return nil
}
