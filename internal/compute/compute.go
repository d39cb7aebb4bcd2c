// Package compute models single-processor computation cost per phase and
// material — the quantity the paper calls "the per-cell cost from a
// piecewise linear equation given the phase and material type" (Equation 2).
//
// Two representations live here:
//
//   - TruthTable is the ground truth used by the cluster simulator (the
//     stand-in for the real Krak running on real ES45 nodes): per phase, a
//     fixed subgrid overhead plus per-material linear and square-root terms.
//     The fixed term produces exactly the behaviour of Figure 3: per-cell
//     cost is flat for large subgrids and climbs as subgrids shrink, until
//     the time per subgrid approaches a constant ("the knee").
//
//   - Calibrated is what the performance model is allowed to know: per-cell
//     cost curves reconstructed from measurement campaigns (regression over
//     contrived grids, or least squares over a real deck's processors, both
//     in internal/core). The gap between Calibrated and TruthTable is a
//     modeling error the paper also had — it is what breaks the
//     mesh-specific model near the knee in Table 5.
package compute

import (
	"fmt"
	"math"

	"krak/internal/linalg"
	"krak/internal/mesh"
	"krak/internal/phases"
	"krak/internal/stats"
)

// PhaseCoeffs holds the ground-truth cost coefficients of one phase.
type PhaseCoeffs struct {
	// Fixed is the per-subgrid overhead in seconds, paid once per phase
	// regardless of cell count (loop setup, per-phase bookkeeping).
	Fixed float64

	// PerCell is the asymptotic per-cell cost in seconds, by material.
	PerCell [mesh.NumMaterials]float64

	// PerSqrt scales a sqrt(cells) term in seconds, by material — surface-
	// like work (material interfaces, slip-line bookkeeping) that breaks
	// pure linearity and gives the calibration something to miss.
	PerSqrt [mesh.NumMaterials]float64
}

// TruthTable is the machine's ground-truth computation cost model.
type TruthTable struct {
	Name   string
	Phases [phases.Count]PhaseCoeffs

	// NoiseFrac is the relative amplitude of deterministic pseudo-random
	// run-to-run variation applied by NoisyPhaseTime (e.g. 0.03 = ±3%).
	NoiseFrac float64

	// Seed drives the noise streams.
	Seed uint64
}

// PhaseTime returns the noiseless computation time of phase ph (1-based) on
// a subgrid holding the given per-material cell counts.
func (t *TruthTable) PhaseTime(ph int, counts [mesh.NumMaterials]int) float64 {
	c := t.Phases[ph-1]
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0 // an empty subgrid does no work in any phase
	}
	s := c.Fixed
	for m, n := range counts {
		if n > 0 {
			s += c.PerCell[m]*float64(n) + c.PerSqrt[m]*math.Sqrt(float64(n))
		}
	}
	return s
}

// NoisyPhaseTime perturbs PhaseTime with deterministic noise derived from
// (Seed, phase, pe, iteration): the same arguments always yield the same
// "measurement", but distinct processors and iterations vary independently.
func (t *TruthTable) NoisyPhaseTime(ph int, counts [mesh.NumMaterials]int, pe, iteration int) float64 {
	base := t.PhaseTime(ph, counts)
	if t.NoiseFrac == 0 || base == 0 {
		return base
	}
	rng := stats.Derive(t.Seed, uint64(ph), uint64(pe), uint64(iteration))
	return base * (1 + t.NoiseFrac*rng.Sym())
}

// SingleMaterialTime returns the noiseless phase time for a subgrid of n
// cells of one material — the quantity plotted (divided by n) in Figure 3.
func (t *TruthTable) SingleMaterialTime(ph int, mat mesh.Material, n int) float64 {
	var counts [mesh.NumMaterials]int
	counts[mat] = n
	return t.PhaseTime(ph, counts)
}

// PerCellCost returns the noiseless per-cell cost of a single-material
// subgrid, i.e. SingleMaterialTime/n. It panics if n <= 0.
func (t *TruthTable) PerCellCost(ph int, mat mesh.Material, n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("compute: PerCellCost with n=%d", n))
	}
	return t.SingleMaterialTime(ph, mat, n) / float64(n)
}

// ES45 returns the default ground-truth table, tuned so that whole
// iterations of the paper's decks land in the same few-tens-of-milliseconds
// range as the paper's measurements on 1.25 GHz Alpha EV-68 processors
// (Tables 5 and 6), with material-dependent phases 2, 5, 7, 12, and 14:
// detonation work makes H.E. gas expensive in phase 2, foam's crush model
// dominates phase 7, and aluminum's strength model dominates phase 14.
func ES45() *TruthTable {
	const us = 1e-6
	const ms = 1e-3
	t := &TruthTable{Name: "ES45/EV-68 ground truth", NoiseFrac: 0.03, Seed: 0x5ca1ab1e}
	flat := func(fixed, percell, persqrt float64) PhaseCoeffs {
		var c PhaseCoeffs
		c.Fixed = fixed
		for m := range c.PerCell {
			c.PerCell[m] = percell
			c.PerSqrt[m] = persqrt
		}
		return c
	}
	mat := func(fixed float64, percell [mesh.NumMaterials]float64, persqrt float64) PhaseCoeffs {
		var c PhaseCoeffs
		c.Fixed = fixed
		c.PerCell = percell
		for m := range c.PerSqrt {
			c.PerSqrt[m] = persqrt
		}
		return c
	}
	t.Phases = [phases.Count]PhaseCoeffs{
		flat(0.8*ms, 0.30*us, 0.4*us), // 1
		mat(3.0*ms, [...]float64{2.20 * us, 1.50 * us, 1.80 * us, 1.50 * us}, 1.0*us), // 2
		flat(5.0*ms, 2.80*us, 1.2*us), // 3
		flat(1.2*ms, 0.50*us, 0.4*us), // 4
		mat(2.0*ms, [...]float64{1.00 * us, 0.80 * us, 0.90 * us, 0.80 * us}, 0.6*us), // 5
		flat(5.0*ms, 2.60*us, 1.2*us), // 6
		mat(2.5*ms, [...]float64{1.30 * us, 0.90 * us, 1.60 * us, 0.90 * us}, 0.8*us), // 7
		flat(1.5*ms, 0.70*us, 0.4*us), // 8
		flat(1.5*ms, 0.60*us, 0.4*us), // 9
		flat(1.2*ms, 0.50*us, 0.3*us), // 10
		flat(2.5*ms, 0.80*us, 0.5*us), // 11
		mat(1.8*ms, [...]float64{0.60 * us, 0.50 * us, 0.55 * us, 0.50 * us}, 0.4*us), // 12
		flat(1.0*ms, 0.40*us, 0.3*us), // 13
		mat(3.5*ms, [...]float64{0.80 * us, 1.40 * us, 1.00 * us, 1.50 * us}, 0.9*us), // 14
		flat(1.5*ms, 0.30*us, 0.3*us), // 15
	}
	return t
}

// WithoutKnee returns a copy of the table with all fixed and sqrt terms
// removed, leaving purely linear per-cell costs. Used by the ablation bench
// that quantifies how much of the small-grid modeling error of Table 5 is
// attributable to the knee.
func (t *TruthTable) WithoutKnee() *TruthTable {
	c := *t
	c.Name = t.Name + " (no knee)"
	for i := range c.Phases {
		c.Phases[i].Fixed = 0
		for m := range c.Phases[i].PerSqrt {
			c.Phases[i].PerSqrt[m] = 0
		}
	}
	return &c
}

// Scaled returns a copy of the table with every cost coefficient (fixed,
// per-cell, and sqrt terms) multiplied by f — a uniformly slower (f > 1)
// or faster (f < 1) processor relative to this one. Noise amplitude and
// streams are unchanged, so a scaled table's noisy measurements are
// exactly f times the original's.
func (t *TruthTable) Scaled(f float64) *TruthTable {
	c := *t
	c.Name = fmt.Sprintf("%s (x%g)", t.Name, f)
	for i := range c.Phases {
		c.Phases[i].Fixed *= f
		for m := range c.Phases[i].PerCell {
			c.Phases[i].PerCell[m] *= f
			c.Phases[i].PerSqrt[m] *= f
		}
	}
	return &c
}

// WithoutNoise returns a copy of the table with measurement noise disabled.
func (t *TruthTable) WithoutNoise() *TruthTable {
	c := *t
	c.NoiseFrac = 0
	return &c
}

// Calibrated is the model-side computation cost representation: per-cell
// cost curves by phase and material, tabulated against subgrid size
// (cells per processor) and interpolated piecewise-linearly in log-cell
// space, exactly as §3.1 describes.
type Calibrated struct {
	// Curves[ph-1][mat] maps cells-per-processor to per-cell seconds.
	Curves [phases.Count][mesh.NumMaterials]*linalg.Piecewise
}

// PerCell evaluates the calibrated per-cell cost for a phase and material on
// a subgrid of n total cells. Returns 0 when the curve is missing.
func (c *Calibrated) PerCell(ph int, mat mesh.Material, n int) float64 {
	curve := c.Curves[ph-1][mat]
	if curve == nil || n <= 0 {
		return 0
	}
	v := curve.EvalLog(float64(n))
	if v < 0 {
		return 0 // regression artifacts must not go negative
	}
	return v
}

// PhaseTime evaluates Equation (2)'s inner sum for one processor: the sum
// over that processor's cells of the per-cell cost for the cell's material,
// with the per-cell cost read at the processor's total subgrid size.
func (c *Calibrated) PhaseTime(ph int, counts [mesh.NumMaterials]int) float64 {
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	var s float64
	for m, n := range counts {
		if n > 0 {
			s += float64(n) * c.PerCell(ph, mesh.Material(m), total)
		}
	}
	return s
}

// SetCurve installs a per-cell cost curve.
func (c *Calibrated) SetCurve(ph int, mat mesh.Material, curve *linalg.Piecewise) error {
	if ph < 1 || ph > phases.Count {
		return fmt.Errorf("compute: phase %d out of range", ph)
	}
	c.Curves[ph-1][mat] = curve
	return nil
}
