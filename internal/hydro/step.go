package hydro

import (
	"fmt"
	"math"
	"time"

	"krak/internal/phases"
)

// Exchanger abstracts the communication a (sub)grid performs during one
// timestep. The serial driver uses no-ops; the parallel driver implements
// the paper's message patterns over mpisim.
type Exchanger interface {
	// Rank identifies this subgrid (0 in serial).
	Rank() int
	// BoundaryExchange performs the phase 2 face-data exchange.
	BoundaryExchange(s *State) error
	// SumShared adds neighboring subgrids' partial values into total for
	// every shared node: total[n] = partial[n] + sum of remote partials.
	// The tag distinguishes concurrent exchanges within one phase.
	SumShared(partial, total []float64, tag int) error
	// SyncGhostVelocities overwrites shared-node velocities with the
	// owning rank's values (phase 7).
	SyncGhostVelocities(s *State) error
	// AllreduceMin/Max/Sum are the phase-closing global reductions.
	AllreduceMin(v float64) (float64, error)
	AllreduceMax(v float64) (float64, error)
	AllreduceSum(v float64) (float64, error)
	// Bcast distributes root's values.
	Bcast(vals []float64) ([]float64, error)
	// Gather collects fixed-size diagnostics at rank 0 (returns nil
	// elsewhere).
	Gather(vals []float64) ([][]float64, error)
}

// Serial is the no-communication exchanger.
type Serial struct{}

// Rank implements Exchanger.
func (Serial) Rank() int { return 0 }

// BoundaryExchange implements Exchanger.
func (Serial) BoundaryExchange(*State) error { return nil }

// SumShared implements Exchanger.
func (Serial) SumShared(partial, total []float64, tag int) error {
	copy(total, partial)
	return nil
}

// SyncGhostVelocities implements Exchanger.
func (Serial) SyncGhostVelocities(*State) error { return nil }

// AllreduceMin implements Exchanger.
func (Serial) AllreduceMin(v float64) (float64, error) { return v, nil }

// AllreduceMax implements Exchanger.
func (Serial) AllreduceMax(v float64) (float64, error) { return v, nil }

// AllreduceSum implements Exchanger.
func (Serial) AllreduceSum(v float64) (float64, error) { return v, nil }

// Bcast implements Exchanger.
func (Serial) Bcast(vals []float64) ([]float64, error) { return vals, nil }

// Gather implements Exchanger.
func (Serial) Gather(vals []float64) ([][]float64, error) { return [][]float64{vals}, nil }

// PhaseSeconds accumulates wall-clock time per Table 1 phase.
type PhaseSeconds [phases.Count]float64

// maxCompression is the density ratio beyond which the subzonal rebound
// term engages.
const maxCompression = 3.0

// Step advances the state by one timestep, organized as the paper's 15
// phases. Wall-clock per-phase times are accumulated into timers when
// non-nil.
func Step(s *State, ex Exchanger, timers *PhaseSeconds) error {
	//krakcheck:ignore detrand phase timers are a wall-clock profile of this run; the physics state never reads them
	tick := time.Now()
	lap := func(ph int) {
		if timers != nil {
			//krakcheck:ignore detrand same wall-clock profile as above
			now := time.Now()
			timers[ph-1] += now.Sub(tick).Seconds()
			tick = now
		}
	}

	// Phase 1: iteration setup. Rank 0 broadcasts cycle and time; two
	// status reductions close the phase.
	meta, err := ex.Bcast([]float64{float64(s.Cycle), s.Time, s.DT})
	if err != nil {
		return err
	}
	s.Cycle = int(meta[0])
	s.Time = meta[1]
	s.DT = meta[2]
	if _, err := ex.AllreduceSum(1); err != nil {
		return err
	}
	if _, err := ex.AllreduceMax(s.DT); err != nil {
		return err
	}
	lap(1)

	// Phase 2: boundary exchange plus a diagnostics gather.
	if err := ex.BoundaryExchange(s); err != nil {
		return err
	}
	d := s.Diag()
	if _, err := ex.Gather([]float64{d.TotalMass, d.InternalEnergy, d.KineticEnergy, float64(d.BurnedCells)}); err != nil {
		return err
	}
	if _, err := ex.AllreduceSum(d.TotalMass); err != nil {
		return err
	}
	lap(2)

	// Phase 3: volumes, density, EOS, artificial viscosity.
	minRho, maxP := phase3EOS(s)
	if _, err := ex.AllreduceMin(minRho); err != nil {
		return err
	}
	if _, err := ex.AllreduceMax(maxP); err != nil {
		return err
	}
	if _, err := ex.AllreduceSum(0); err != nil {
		return err
	}
	lap(3)

	// Phase 4: corner masses; ghost-node mass update (8 bytes per node).
	phase4Mass(s)
	if err := ex.SumShared(s.massLocal, s.NodeMass, 4); err != nil {
		return err
	}
	if _, err := ex.AllreduceSum(0); err != nil {
		return err
	}
	lap(4)

	// Phase 5: corner forces incl. hourglass resistance; ghost-node force
	// update (16 bytes per node: fx, fy).
	phase5Forces(s)
	if err := ex.SumShared(s.fxLocal, s.FX, 50); err != nil {
		return err
	}
	if err := ex.SumShared(s.fyLocal, s.FY, 51); err != nil {
		return err
	}
	if _, err := ex.AllreduceSum(0); err != nil {
		return err
	}
	lap(5)

	// Phase 6: accelerations, velocity update, boundary conditions.
	maxU := phase6Velocity(s)
	if _, err := ex.AllreduceMax(maxU); err != nil {
		return err
	}
	if _, err := ex.AllreduceMin(0); err != nil {
		return err
	}
	if _, err := ex.AllreduceSum(0); err != nil {
		return err
	}
	lap(6)

	// Phase 7: ghost-node velocity synchronization (16 bytes per node).
	if err := ex.SyncGhostVelocities(s); err != nil {
		return err
	}
	if _, err := ex.AllreduceSum(0); err != nil {
		return err
	}
	lap(7)

	// Phase 8: move nodes.
	phase8Move(s)
	if _, err := ex.AllreduceMin(1); err != nil {
		return err
	}
	lap(8)

	// Phase 9: PdV energy update with the new volumes.
	minVol := phase9Energy(s)
	if _, err := ex.AllreduceMin(minVol); err != nil {
		return err
	}
	if minVol <= 0 {
		return fmt.Errorf("hydro: cell inverted at cycle %d (volume %g)", s.Cycle, minVol)
	}
	lap(9)

	// Phase 10: programmed burn.
	released := phase10Burn(s)
	if _, err := ex.AllreduceSum(released); err != nil {
		return err
	}
	lap(10)

	// Phase 11: hourglass diagnostics.
	hg := phase11Hourglass(s)
	if _, err := ex.AllreduceMax(hg); err != nil {
		return err
	}
	if _, err := ex.AllreduceSum(hg); err != nil {
		return err
	}
	lap(11)

	// Phase 12: strain-rate diagnostics (material dependent).
	strain := phase12Strain(s)
	if _, err := ex.AllreduceMax(strain); err != nil {
		return err
	}
	lap(12)

	// Phase 13: floors and clamps.
	phase13Floors(s)
	if _, err := ex.AllreduceSum(0); err != nil {
		return err
	}
	lap(13)

	// Phase 14: material strength relaxation (aluminum-heavy).
	phase14Strength(s)
	if _, err := ex.AllreduceSum(0); err != nil {
		return err
	}
	lap(14)

	// Phase 15: next timestep: local CFL, global min, broadcast.
	dtLocal := phase15DT(s)
	dtGlobal, err := ex.AllreduceMin(dtLocal)
	if err != nil {
		return err
	}
	if _, err := ex.AllreduceSum(0); err != nil {
		return err
	}
	next, err := ex.Bcast([]float64{dtGlobal})
	if err != nil {
		return err
	}
	s.Time += s.DT
	s.Cycle++
	s.DT = next[0]
	lap(15)
	return nil
}

// phase3EOS recomputes volumes, densities, pressures, and artificial
// viscosity; returns the minimum density and maximum pressure.
func phase3EOS(s *State) (minRho, maxP float64) {
	minRho = math.Inf(1)
	for c := 0; c < s.Mesh.NumCells(); c++ {
		vol := polyArea(s, c)
		s.Vol[c] = vol
		if vol > 0 {
			s.Rho[c] = s.CMass[c] / vol
		}
		eos := s.Opt.Materials[s.Mesh.CellMaterial[c]]
		s.P[c] = eos.PressureState(s.Rho[c], s.En[c], s.Burned[c])
		// Artificial viscosity from the compression rate.
		div := divergence(s, c)
		if div < 0 && vol > 0 {
			l := charLength(s, c)
			du := -div * l
			cs := eos.SoundSpeedState(s.Rho[c], s.En[c], s.Burned[c])
			s.Q[c] = s.Rho[c] * (s.Opt.QLinear*cs*du + s.Opt.QQuad*du*du)
		} else {
			s.Q[c] = 0
		}
		// Subzonal compression limiter: cells approaching the maximum
		// compression ratio pick up a stiff elastic rebound, preventing
		// the geometric collapse a plain corner-force scheme allows
		// (production codes use subzonal pressures for the same purpose).
		if ratio := s.Rho[c] / eos.Rho0; ratio > maxCompression && div < 0 {
			over := ratio - maxCompression
			ref := eos.C0
			if ref == 0 {
				ref = eos.SoundSpeedState(s.Rho[c], s.En[c], s.Burned[c])
			}
			s.Q[c] += eos.Rho0 * ref * ref * over * over
		}
		if s.Rho[c] < minRho {
			minRho = s.Rho[c]
		}
		if s.P[c] > maxP {
			maxP = s.P[c]
		}
	}
	return minRho, maxP
}

// divergence returns (dA/dt)/A for a cell from its nodal velocities.
func divergence(s *State, c int) float64 {
	n := s.Mesh.CellNodes[c]
	var dAdt float64
	for i := 0; i < 4; i++ {
		j := (i + 1) % 4
		ni, nj := n[i], n[j]
		dAdt += s.U[ni]*s.Y[nj] - s.U[nj]*s.Y[ni] + s.X[ni]*s.V[nj] - s.X[nj]*s.V[ni]
	}
	dAdt /= 2
	if s.Vol[c] <= 0 {
		return 0
	}
	return dAdt / s.Vol[c]
}

// phase4Mass computes this subgrid's partial corner masses.
func phase4Mass(s *State) {
	for n := range s.massLocal {
		s.massLocal[n] = 0
	}
	for c := 0; c < s.Mesh.NumCells(); c++ {
		quarter := s.CMass[c] / 4
		for _, n := range s.Mesh.CellNodes[c] {
			s.massLocal[n] += quarter
		}
	}
	copy(s.NodeMass, s.massLocal)
}

// phase5Forces computes this subgrid's partial nodal forces: pressure plus
// artificial viscosity acting on cell corners, plus a viscous hourglass
// resistance.
func phase5Forces(s *State) {
	for n := range s.fxLocal {
		s.fxLocal[n] = 0
		s.fyLocal[n] = 0
	}
	for c := 0; c < s.Mesh.NumCells(); c++ {
		n := s.Mesh.CellNodes[c]
		pt := s.P[c] + s.Q[c]
		for i := 0; i < 4; i++ {
			prev := n[(i+3)%4]
			next := n[(i+1)%4]
			// Outward corner force F_i = p * dA/dx_i: pressure does work
			// to expand the cell (shoelace area gradient).
			s.fxLocal[n[i]] += pt / 2 * (s.Y[next] - s.Y[prev])
			s.fyLocal[n[i]] += pt / 2 * (s.X[prev] - s.X[next])
		}
		// Hourglass resistance: damp the +-+- corner velocity mode. The
		// removed kinetic energy is dissipation, fed back as heat in the
		// phase 9 energy update so total energy closes.
		s.hgPower[c] = 0
		if k := s.Opt.HourglassDamping; k > 0 {
			ampU := s.U[n[0]] - s.U[n[1]] + s.U[n[2]] - s.U[n[3]]
			ampV := s.V[n[0]] - s.V[n[1]] + s.V[n[2]] - s.V[n[3]]
			eos := s.Opt.Materials[s.Mesh.CellMaterial[c]]
			cs := eos.SoundSpeedState(s.Rho[c], s.En[c], s.Burned[c])
			coef := k * s.Rho[c] * cs * charLength(s, c) / 4
			for i := 0; i < 4; i++ {
				sign := 1.0
				if i%2 == 1 {
					sign = -1
				}
				s.fxLocal[n[i]] -= coef * sign * ampU
				s.fyLocal[n[i]] -= coef * sign * ampV
			}
			// Work rate extracted from the hourglass mode:
			// sum_i F_i·u_i = -coef*(ampU^2 + ampV^2).
			s.hgPower[c] = coef * (ampU*ampU + ampV*ampV)
		}
	}
	copy(s.FX, s.fxLocal)
	copy(s.FY, s.fyLocal)
}

// contactFraction is the edge length (relative to the cell's initial
// scale) below which two nodes are treated as being in contact.
const contactFraction = 0.05

// phase6Velocity integrates nodal velocities, applies boundary conditions,
// and resolves node-node contact on degenerate edges; returns the maximum
// speed.
func phase6Velocity(s *State) float64 {
	for n := 0; n < s.Mesh.NumNodes(); n++ {
		if s.NodeMass[n] <= 0 {
			continue
		}
		s.U[n] += s.FX[n] / s.NodeMass[n] * s.DT
		s.V[n] += s.FY[n] / s.NodeMass[n] * s.DT
		if s.OnAxis[n] {
			s.U[n] = 0 // reflective axis of rotation
		}
	}
	// Contact: when a cell edge has pinched below the contact length, the
	// closing component of the two nodes' relative velocity is removed
	// (perfectly inelastic), preventing edge crossing without freezing
	// the timestep.
	for c := 0; c < s.Mesh.NumCells(); c++ {
		limit := contactFraction * s.H0[c]
		n := s.Mesh.CellNodes[c]
		for i := 0; i < 4; i++ {
			j := (i + 1) % 4
			a, b := n[i], n[j]
			ex := s.X[b] - s.X[a]
			ey := s.Y[b] - s.Y[a]
			el := math.Hypot(ex, ey)
			if el >= limit {
				continue
			}
			var dx, dy float64
			if el > 0 {
				dx, dy = ex/el, ey/el
			} else {
				// Coincident nodes: use their relative velocity direction.
				rvx, rvy := s.U[b]-s.U[a], s.V[b]-s.V[a]
				rl := math.Hypot(rvx, rvy)
				if rl == 0 {
					continue
				}
				dx, dy = rvx/rl, rvy/rl
			}
			// Closing speed along the edge direction.
			rel := (s.U[b]-s.U[a])*dx + (s.V[b]-s.V[a])*dy
			if rel >= 0 {
				continue // separating
			}
			ma, mb := s.NodeMass[a], s.NodeMass[b]
			if ma+mb <= 0 {
				continue
			}
			// Momentum-conserving removal of the closing component; the
			// lost kinetic energy becomes heat in the pinched cell.
			pa := (s.U[a]*dx + s.V[a]*dy)
			pb := (s.U[b]*dx + s.V[b]*dy)
			avg := (ma*pa + mb*pb) / (ma + mb)
			lost := 0.5*(ma*pa*pa+mb*pb*pb) - 0.5*(ma+mb)*avg*avg
			if lost > 0 {
				s.contactHeat[c] += lost
			}
			s.U[a] += (avg - pa) * dx
			s.V[a] += (avg - pa) * dy
			s.U[b] += (avg - pb) * dx
			s.V[b] += (avg - pb) * dy
			if s.OnAxis[a] {
				s.U[a] = 0
			}
			if s.OnAxis[b] {
				s.U[b] = 0
			}
		}
	}
	var maxU float64
	for n := 0; n < s.Mesh.NumNodes(); n++ {
		if sp := math.Hypot(s.U[n], s.V[n]); sp > maxU {
			maxU = sp
		}
	}
	return maxU
}

// phase8Move advances nodal positions.
func phase8Move(s *State) {
	for n := 0; n < s.Mesh.NumNodes(); n++ {
		s.X[n] += s.U[n] * s.DT
		s.Y[n] += s.V[n] * s.DT
	}
}

// phase9Energy applies PdV work with the post-move volumes, using a
// time-centered pressure (one predictor-corrector pass: the standard
// iterated energy update) so strong shocks conserve total energy to first
// order in dt rather than zeroth. Returns the minimum volume.
func phase9Energy(s *State) float64 {
	minVol := math.Inf(1)
	for c := 0; c < s.Mesh.NumCells(); c++ {
		newVol := polyArea(s, c)
		dV := newVol - s.Vol[c]
		if s.CMass[c] > 0 && newVol > 0 {
			eos := s.Opt.Materials[s.Mesh.CellMaterial[c]]
			pOld := s.P[c]
			rhoNew := s.CMass[c] / newVol
			// Predictor: end-of-step energy with the old pressure.
			ePred := s.En[c] - (pOld+s.Q[c])*dV/s.CMass[c]
			if ePred < 0 {
				ePred = 0
			}
			pNew := eos.PressureState(rhoNew, ePred, s.Burned[c])
			// Corrector: time-centered pressure in the work term.
			s.En[c] -= (0.5*(pOld+pNew) + s.Q[c]) * dV / s.CMass[c]
			// Hourglass and contact dissipation return as heat.
			s.En[c] += (s.hgPower[c]*s.DT + s.contactHeat[c]) / s.CMass[c]
			s.contactHeat[c] = 0
		}
		s.Vol[c] = newVol
		if newVol > 0 {
			s.Rho[c] = s.CMass[c] / newVol
		}
		if newVol < minVol {
			minVol = newVol
		}
	}
	return minVol
}

// phase10Burn advances the programmed burn: once the front reaches a cell,
// its detonation energy ramps in over the front's transit time and the cell
// switches to the product-gas EOS. Returns the energy released this step.
func phase10Burn(s *State) float64 {
	var released float64
	for c := 0; c < s.Mesh.NumCells(); c++ {
		bt := s.BurnTime[c]
		if math.IsInf(bt, 1) || s.Time < bt || s.BurnFrac[c] >= 1 {
			continue
		}
		frac := 1.0
		if tau := s.BurnTau[c]; tau > 0 {
			frac = (s.Time - bt) / tau
			if frac > 1 {
				frac = 1
			}
		}
		if frac <= s.BurnFrac[c] {
			continue
		}
		eos := s.Opt.Materials[s.Mesh.CellMaterial[c]]
		de := eos.DetonationEnergy * (frac - s.BurnFrac[c])
		s.En[c] += de
		released += de * s.CMass[c]
		s.BurnFrac[c] = frac
		s.Burned[c] = true
	}
	s.EnergyReleased += released
	return released
}

// phase11Hourglass measures the residual hourglass-mode amplitude.
func phase11Hourglass(s *State) float64 {
	var worst float64
	for c := 0; c < s.Mesh.NumCells(); c++ {
		n := s.Mesh.CellNodes[c]
		amp := math.Abs(s.U[n[0]]-s.U[n[1]]+s.U[n[2]]-s.U[n[3]]) +
			math.Abs(s.V[n[0]]-s.V[n[1]]+s.V[n[2]]-s.V[n[3]])
		if amp > worst {
			worst = amp
		}
	}
	return worst
}

// phase12Strain computes the maximum volumetric strain rate.
func phase12Strain(s *State) float64 {
	var worst float64
	for c := 0; c < s.Mesh.NumCells(); c++ {
		if d := math.Abs(divergence(s, c)); d > worst {
			worst = d
		}
	}
	return worst
}

// phase13Floors clamps unphysical states.
func phase13Floors(s *State) {
	for c := 0; c < s.Mesh.NumCells(); c++ {
		if s.En[c] < 0 {
			s.En[c] = 0
		}
	}
}

// phase14Strength relaxes a deviatoric measure for the strength-bearing
// (aluminum) materials — the material-dependent tail work of the iteration.
func phase14Strength(s *State) {
	for c := 0; c < s.Mesh.NumCells(); c++ {
		mat := s.Mesh.CellMaterial[c]
		eos := s.Opt.Materials[mat]
		if eos.C0 == 0 || eos.CrushPressure > 0 {
			continue // gas and foam carry no strength
		}
		// Simple shear-rate proxy on the cell's diagonals.
		n := s.Mesh.CellNodes[c]
		shear := math.Abs((s.U[n[2]]-s.U[n[0]])-(s.U[n[3]]-s.U[n[1]])) +
			math.Abs((s.V[n[2]]-s.V[n[0]])-(s.V[n[3]]-s.V[n[1]]))
		_ = shear // diagnostic only; full plasticity is out of scope
	}
}

// phase15DT returns the local CFL-limited timestep for the next cycle,
// bounded to grow at most 10% per step.
func phase15DT(s *State) float64 {
	dt := s.DT * 1.1
	for c := 0; c < s.Mesh.NumCells(); c++ {
		l := charLength(s, c)
		if l <= 0 {
			continue
		}
		eos := s.Opt.Materials[s.Mesh.CellMaterial[c]]
		cs := eos.SoundSpeedState(s.Rho[c], s.En[c], s.Burned[c])
		// Include the fastest corner speed.
		var umax float64
		for _, n := range s.Mesh.CellNodes[c] {
			if sp := math.Hypot(s.U[n], s.V[n]); sp > umax {
				umax = sp
			}
		}
		if lim := s.Opt.CFL * l / (cs + umax + 1e-30); lim < dt {
			dt = lim
		}
		// Edge-closing limiter: no edge may lose more than CFL of its
		// length in one step, which keeps cells from pinching shut
		// between timestep checks. Edges already at contact length are
		// handled by the phase 6 contact resolution instead.
		n := s.Mesh.CellNodes[c]
		for i := 0; i < 4; i++ {
			j := (i + 1) % 4
			ex := s.X[n[j]] - s.X[n[i]]
			ey := s.Y[n[j]] - s.Y[n[i]]
			el := math.Hypot(ex, ey)
			if el <= contactFraction*s.H0[c] {
				continue
			}
			// Closing speed: negative rate of change of edge length.
			closing := -((s.U[n[j]]-s.U[n[i]])*ex + (s.V[n[j]]-s.V[n[i]])*ey) / el
			if closing > 0 {
				if lim := s.Opt.CFL * el / closing; lim < dt {
					dt = lim
				}
			}
		}
	}
	return dt
}
