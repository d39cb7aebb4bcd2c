// Package core implements the paper's contribution: the analytic
// performance model of the Krak hydrodynamics application.
//
// The model separates computation from communication and models each
// individually (§2.2):
//
//   - Computation follows Equations (1)-(3): an iteration is a sequence of
//     phases separated by global synchronizations, so each phase costs the
//     maximum over processors of the sum over the processor's cells of a
//     per-cell cost T(phase, material), where T is read from piecewise
//     linear per-cell cost curves (internal/compute.Calibrated).
//
//   - Communication follows Equations (4)-(10): point-to-point messages
//     cost Tmsg(S) = L(S) + S*TB(S) (internal/netmodel); boundary
//     exchanges send six messages per neighbor per material step plus a
//     final step (Equation 5, §4.1); ghost-node updates send a local and a
//     remote message per neighbor (Equations 6-7, §4.2); and collectives
//     traverse binary trees (Equations 8-10, §4.3).
//
// Two model variants are provided, as in the paper: the mesh-specific model
// (§3.1) consumes the exact partition summary — per-processor material
// mixtures and per-pair boundary compositions — while the general model
// (§3.2) replaces the partition with an idealized geometry (equal square
// subgrids, four neighbors, boundary faces split equally among materials)
// under a heterogeneous or homogeneous material assumption.
//
// Model calibration (§3.1) is in calibrate.go: per-cell cost curves are
// recovered from measurement campaigns — either contrived single-material
// grids or least-squares fits over a real deck's processors — never from
// the simulator's ground-truth coefficients.
package core

import (
	"fmt"

	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/phases"
)

// Prediction is a modeled iteration time with its per-phase breakdown.
type Prediction struct {
	// Total is the predicted iteration time in seconds: the sum of the
	// phase totals.
	Total float64

	// PhaseCompute[ph-1] is the computation share of each phase: the
	// maximum over processors (Equation 3's max term).
	PhaseCompute [phases.Count]float64

	// PhaseP2P[ph-1] is the point-to-point communication share (boundary
	// exchange or ghost updates).
	PhaseP2P [phases.Count]float64

	// PhaseCollective[ph-1] is the collective share (broadcasts, gathers,
	// and the phase-closing all-reduces).
	PhaseCollective [phases.Count]float64
}

// PhaseTotal returns the total modeled time of a 1-based phase.
func (p *Prediction) PhaseTotal(ph int) float64 {
	return p.PhaseCompute[ph-1] + p.PhaseP2P[ph-1] + p.PhaseCollective[ph-1]
}

// Compute returns the summed computation share.
func (p *Prediction) Compute() float64 {
	var s float64
	for _, v := range p.PhaseCompute {
		s += v
	}
	return s
}

// Communication returns the summed communication share (point-to-point plus
// collectives).
func (p *Prediction) Communication() float64 {
	var s float64
	for i := range p.PhaseP2P {
		s += p.PhaseP2P[i] + p.PhaseCollective[i]
	}
	return s
}

func (p *Prediction) finalize() {
	p.Total = 0
	for ph := 1; ph <= phases.Count; ph++ {
		p.Total += p.PhaseTotal(ph)
	}
}

// collectiveTime models the collectives of one phase per Equations (8)-(10).
func collectiveTime(net *netmodel.Model, ph phases.Phase, p int) float64 {
	var t float64
	for _, b := range ph.BcastBytes {
		t += net.Bcast(p, b)
	}
	for _, b := range ph.GatherBytes {
		t += net.Gather(p, b)
	}
	for _, b := range ph.AllreduceBytes {
		t += net.Allreduce(p, b)
	}
	return t
}

// BoundaryExchangeOptions control which §4.1 refinements Equation (5) uses.
// The plain Equation (5) — the paper notes — accounts for neither combining
// identical materials nor the extra 12 bytes per multi-material ghost node;
// the mesh-specific model enables both to match the application's actual
// message sizes (Table 3).
type BoundaryExchangeOptions struct {
	// CombineIdenticalMaterials merges the two aluminum layers into one
	// exchange step.
	CombineIdenticalMaterials bool
	// GhostSurcharge adds 12 bytes per multi-material ghost node to the
	// first two messages of each material step.
	GhostSurcharge bool
}

// BoundaryExchangeTime evaluates Equation (5) for one processor exchanging
// with a single neighbor across boundary b: six messages per non-empty
// material step plus six messages of the all-materials step, with no
// overlap between messages.
func BoundaryExchangeTime(net *netmodel.Model, b *mesh.PairBoundary, opt BoundaryExchangeOptions) float64 {
	var t float64
	if opt.CombineIdenticalMaterials {
		for g := 0; g < mesh.NumExchangeGroups; g++ {
			faces := b.FacesByGroup[g]
			if faces == 0 {
				continue
			}
			first := phases.BytesPerFaceWord * faces
			if opt.GhostSurcharge {
				first += phases.BytesPerFaceWord * b.MultiGroupGhostsByGroup[g]
			}
			rest := phases.BytesPerFaceWord * faces
			t += 2*net.MsgTime(first) + 4*net.MsgTime(rest)
		}
	} else {
		for m := 0; m < mesh.NumMaterials; m++ {
			faces := b.FacesByMaterial[m]
			if faces == 0 {
				continue
			}
			first := phases.BytesPerFaceWord * faces
			if opt.GhostSurcharge {
				first += phases.BytesPerFaceWord * b.MultiGroupGhostsByGroup[mesh.Material(m).Group()]
			}
			rest := phases.BytesPerFaceWord * faces
			t += 2*net.MsgTime(first) + 4*net.MsgTime(rest)
		}
	}
	if b.TotalFaces > 0 {
		t += float64(phases.MessagesPerExchangeStep) * net.MsgTime(phases.BytesPerFaceWord*b.TotalFaces)
	}
	return t
}

// GhostUpdateTime evaluates Equations (6) and (7) for processor pe with a
// single neighbor across boundary b: one message for locally owned ghost
// nodes and one for remote ones, at bytesPerNode each.
func GhostUpdateTime(net *netmodel.Model, b *mesh.PairBoundary, pe, bytesPerNode int) float64 {
	return net.MsgTime(bytesPerNode*b.Owned(pe)) + net.MsgTime(bytesPerNode*b.Remote(pe))
}

// validateNet checks the shared required dependencies.
func validateNet(net *netmodel.Model) error {
	if net == nil {
		return fmt.Errorf("core: network model is required")
	}
	return nil
}
