package core

import (
	"fmt"

	"krak/internal/compute"
	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/phases"
)

// MeshSpecific is the paper's "mesh-specific" ("input-specific") model
// (§3.1): it consumes precise knowledge of the partition — the Cells matrix
// of per-processor material counts and every pair boundary's face and ghost
// composition — and evaluates Equations (3) and (5)-(10) exactly.
type MeshSpecific struct {
	// Costs holds the calibrated per-cell cost curves. Required.
	Costs *compute.Calibrated

	// Net is the interconnect model. Required.
	Net *netmodel.Model

	// Exchange selects the §4.1 message-size refinements. The zero value
	// is the plain Equation (5); NewMeshSpecific enables both refinements,
	// matching the application's actual messages.
	Exchange BoundaryExchangeOptions
}

// NewMeshSpecific builds a mesh-specific model with the full Table 3
// message-size rules.
func NewMeshSpecific(costs *compute.Calibrated, net *netmodel.Model) *MeshSpecific {
	return &MeshSpecific{
		Costs: costs,
		Net:   net,
		Exchange: BoundaryExchangeOptions{
			CombineIdenticalMaterials: true,
			GhostSurcharge:            true,
		},
	}
}

// Predict evaluates the model against a partition summary.
func (m *MeshSpecific) Predict(sum *mesh.PartitionSummary) (*Prediction, error) {
	if m.Costs == nil {
		return nil, fmt.Errorf("core: mesh-specific model needs calibrated costs")
	}
	if err := validateNet(m.Net); err != nil {
		return nil, err
	}
	if sum == nil || sum.P <= 0 {
		return nil, fmt.Errorf("core: empty partition summary")
	}
	pred := &Prediction{}
	for i, ph := range phases.Table1() {
		// Equation (3): phase computation is the max over processors of
		// the per-processor sum of per-cell costs.
		var maxComp float64
		for pe := 0; pe < sum.P; pe++ {
			if c := m.Costs.PhaseTime(ph.Number, sum.CellsByMaterial[pe]); c > maxComp {
				maxComp = c
			}
		}
		pred.PhaseCompute[i] = maxComp

		// Point-to-point communication: the slowest processor's summed
		// per-neighbor time (no overlap, per the Equation 5 note).
		if ph.HasPointToPoint() && sum.P > 1 {
			var maxComm float64
			for pe := 0; pe < sum.P; pe++ {
				var t float64
				for _, nb := range sum.NeighborsOf[pe] {
					b := sum.Boundary(pe, nb)
					if ph.BoundaryExchange {
						t += BoundaryExchangeTime(m.Net, b, m.Exchange)
					} else {
						t += GhostUpdateTime(m.Net, b, pe, ph.GhostUpdateBytes)
					}
				}
				if t > maxComm {
					maxComm = t
				}
			}
			pred.PhaseP2P[i] = maxComm
		}

		pred.PhaseCollective[i] = collectiveTime(m.Net, ph, sum.P)
	}
	pred.finalize()
	return pred, nil
}
