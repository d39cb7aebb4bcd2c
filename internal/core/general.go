package core

import (
	"fmt"
	"math"

	"krak/internal/compute"
	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/phases"
)

// MaterialMode selects the general model's material assumption (§3.2,
// Table 2).
type MaterialMode int

// The two general-model material assumptions.
const (
	// Heterogeneous fixes every subgrid's material ratio at the global
	// deck ratio, regardless of processor count.
	Heterogeneous MaterialMode = iota
	// Homogeneous assumes each subgrid holds a single material and charges
	// each phase for whichever material computes longest.
	Homogeneous
)

// String names the mode as in the paper's Figure 5 legend.
func (m MaterialMode) String() string {
	switch m {
	case Heterogeneous:
		return "Heterogeneous"
	case Homogeneous:
		return "Homogeneous"
	}
	return fmt.Sprintf("MaterialMode(%d)", int(m))
}

// General is the paper's "general" model (§3.2): instead of examining each
// subgrid produced by the partitioner, the input is classified as
// heterogeneous or homogeneous, every processor holds Cells/PEs cells in a
// square subgrid with four neighbors, each shared boundary has
// sqrt(Cells/PEs) faces divided equally among the materials in use, and
// each boundary carries one more ghost node than faces, half locally owned.
// Heterogeneous subgrids hold Table 2's global material ratio, and the
// boundary exchange is the plain Equation (5) (no combining, no ghost
// surcharge), as printed in the paper.
type General struct {
	// Costs holds the calibrated per-cell cost curves. Required.
	Costs *compute.Calibrated

	// Net is the interconnect model. Required.
	Net *netmodel.Model

	// Mode is the material assumption.
	Mode MaterialMode
}

// generalNeighbors is the general model's neighbors per processor: the
// square-subgrid value.
const generalNeighbors = 4

// NewGeneral builds a general model in the given mode with paper-default
// geometry.
func NewGeneral(costs *compute.Calibrated, net *netmodel.Model, mode MaterialMode) *General {
	return &General{Costs: costs, Net: net, Mode: mode}
}

// subgridCounts returns the assumed per-processor material counts for a
// subgrid of n cells in heterogeneous mode.
func (g *General) subgridCounts(n int) [mesh.NumMaterials]int {
	var counts [mesh.NumMaterials]int
	r := mesh.Table2Heterogeneous
	assigned := 0
	for m := 0; m < mesh.NumMaterials-1; m++ {
		counts[m] = int(math.Round(r[m] * float64(n)))
		assigned += counts[m]
	}
	last := n - assigned
	if last < 0 {
		last = 0
	}
	counts[mesh.NumMaterials-1] = last
	return counts
}

// syntheticBoundary builds the §3.2 idealized pair boundary for a subgrid of
// n cells: sqrt(n) faces split across the materials in use, faces+1 ghost
// nodes, half owned locally. In homogeneous mode the boundary holds a
// single material.
func (g *General) syntheticBoundary(n int, homoMat mesh.Material) *mesh.PairBoundary {
	faces := int(math.Round(math.Sqrt(float64(n))))
	if faces < 1 {
		faces = 1
	}
	b := &mesh.PairBoundary{Key: mesh.MakePairKey(0, 1)}
	b.TotalFaces = faces
	if g.Mode == Homogeneous {
		b.FacesByMaterial[homoMat] = faces
		b.FacesByGroup[homoMat.Group()] = faces
	} else {
		// Divide equally among the materials in use (all four).
		per := faces / mesh.NumMaterials
		rem := faces - per*mesh.NumMaterials
		for m := 0; m < mesh.NumMaterials; m++ {
			f := per
			if m < rem {
				f++
			}
			b.FacesByMaterial[m] += f
			b.FacesByGroup[mesh.Material(m).Group()] += f
		}
	}
	ghosts := faces + 1
	b.GhostNodes = ghosts
	b.OwnedByA = ghosts / 2
	b.OwnedByB = ghosts - ghosts/2
	return b
}

// Predict evaluates the general model for a deck of totalCells on p
// processors.
func (g *General) Predict(totalCells, p int) (*Prediction, error) {
	if g.Costs == nil {
		return nil, fmt.Errorf("core: general model needs calibrated costs")
	}
	if err := validateNet(g.Net); err != nil {
		return nil, err
	}
	if totalCells <= 0 || p <= 0 {
		return nil, fmt.Errorf("core: invalid problem %d cells on %d processors", totalCells, p)
	}
	n := totalCells / p
	if n < 1 {
		n = 1
	}
	pred := &Prediction{}

	for i, ph := range phases.Table1() {
		// Computation.
		switch g.Mode {
		case Heterogeneous:
			pred.PhaseCompute[i] = g.Costs.PhaseTime(ph.Number, g.subgridCounts(n))
		case Homogeneous:
			// The most computationally taxing material defines the phase.
			var worst float64
			for m := 0; m < mesh.NumMaterials; m++ {
				var counts [mesh.NumMaterials]int
				counts[m] = n
				if t := g.Costs.PhaseTime(ph.Number, counts); t > worst {
					worst = t
				}
			}
			pred.PhaseCompute[i] = worst
		default:
			return nil, fmt.Errorf("core: unknown material mode %v", g.Mode)
		}

		// Point-to-point communication over the idealized neighbors.
		if ph.HasPointToPoint() && p > 1 {
			var per float64
			if ph.BoundaryExchange {
				// Homogeneous boundaries carry the subgrid's own material;
				// the worst case over materials keeps the accounting
				// consistent with the computation's worst-material rule.
				if g.Mode == Homogeneous {
					var worst float64
					for m := 0; m < mesh.NumMaterials; m++ {
						b := g.syntheticBoundary(n, mesh.Material(m))
						if t := BoundaryExchangeTime(g.Net, b, BoundaryExchangeOptions{}); t > worst {
							worst = t
						}
					}
					per = worst
				} else {
					b := g.syntheticBoundary(n, mesh.HEGas)
					per = BoundaryExchangeTime(g.Net, b, BoundaryExchangeOptions{})
				}
			} else {
				b := g.syntheticBoundary(n, mesh.HEGas)
				per = GhostUpdateTime(g.Net, b, 0, ph.GhostUpdateBytes)
			}
			pred.PhaseP2P[i] = generalNeighbors * per
		}

		pred.PhaseCollective[i] = collectiveTime(g.Net, ph, p)
	}
	pred.finalize()
	return pred, nil
}
