// Package hydro is the Krak stand-in: a from-scratch 2-D Lagrangian
// hydrodynamics mini-application with the iteration structure the paper
// models. Thermodynamic state (density, specific internal energy, pressure,
// artificial viscosity) lives on cells; kinematics (position, velocity)
// live on nodes; the spatial grid deforms as forces propagate through the
// objects. Each of the four deck materials carries its own equation of
// state: gamma-law product gas with programmed-burn detonation for the
// high explosive, a stiffened-gas (Mie-Grüneisen-like) response for the
// aluminum layers, and a crushable weak stiffened gas for the foam.
//
// One timestep is organised as the paper's Table 1: fifteen phases
// separated by global reductions, with a boundary exchange in phase 2,
// ghost-node mass/force/velocity updates in phases 4, 5, and 7, and
// broadcasts opening and closing the iteration. The serial and parallel
// drivers share the same phase kernels; the parallel driver runs one
// mpisim rank per subgrid.
//
// Simplifications relative to the production code (documented in
// docs/MODEL.md): slip lines are not implemented (material interfaces remain
// conforming), hourglass control is a simple viscous damping rather than
// Flanagan-Belytschko, and the cylindrical rotation is treated as planar
// 2-D. None of these affect the performance structure the model captures.
package hydro

import (
	"fmt"
	"math"

	"krak/internal/mesh"
)

// EOS holds one material's equation-of-state and initialization parameters.
type EOS struct {
	// Rho0 is the reference (initial) density.
	Rho0 float64
	// Gamma is the Grüneisen/ideal-gas exponent.
	Gamma float64
	// C0 is the reference sound speed for the stiffened term (0 for pure
	// gas).
	C0 float64
	// E0 is the initial specific internal energy.
	E0 float64
	// DetonationEnergy is the specific energy released on burn (HE only).
	DetonationEnergy float64
	// CrushPressure caps the stiffened response (foam): beyond it the
	// material offers no additional elastic resistance.
	CrushPressure float64
}

// Pressure evaluates the EOS for unreacted material.
func (e EOS) Pressure(rho, en float64) float64 {
	p := (e.Gamma - 1) * rho * en
	if e.C0 > 0 {
		elastic := e.C0 * e.C0 * (rho - e.Rho0)
		if e.CrushPressure > 0 && elastic > e.CrushPressure {
			elastic = e.CrushPressure
		}
		p += elastic
	}
	if p < 0 {
		p = 0 // no tension support (free surfaces open up)
	}
	return p
}

// PressureState evaluates the EOS, switching burned high explosive to its
// gamma-law product-gas form (the stiffened solid term applies only to
// unreacted material).
func (e EOS) PressureState(rho, en float64, burned bool) float64 {
	if burned {
		p := (e.Gamma - 1) * rho * en
		if p < 0 {
			p = 0
		}
		return p
	}
	return e.Pressure(rho, en)
}

// SoundSpeed estimates the adiabatic sound speed of unreacted material.
func (e EOS) SoundSpeed(rho, en float64) float64 {
	if rho <= 0 {
		return e.C0
	}
	c2 := e.Gamma * (e.Gamma - 1) * en
	c2 += e.C0 * e.C0
	if c2 <= 0 {
		return 1e-6
	}
	return math.Sqrt(c2)
}

// SoundSpeedState is SoundSpeed with the burned-gas switch.
func (e EOS) SoundSpeedState(rho, en float64, burned bool) float64 {
	if burned {
		c2 := e.Gamma * (e.Gamma - 1) * en
		if c2 <= 0 {
			return 1e-6
		}
		return math.Sqrt(c2)
	}
	return e.SoundSpeed(rho, en)
}

// Options parameterize a run.
type Options struct {
	// Materials maps each deck material to its EOS. DefaultMaterials()
	// when nil entries are detected (Rho0 == 0).
	Materials [mesh.NumMaterials]EOS

	// CFL is the timestep safety factor (default 0.2).
	CFL float64

	// QLinear and QQuad are the artificial-viscosity coefficients
	// (defaults 0.5 and 2.0).
	QLinear, QQuad float64

	// HourglassDamping scales the viscous resistance applied to the
	// hourglass corner-velocity mode (default 0.5); the extracted energy
	// is returned as heat.
	HourglassDamping float64

	// DetonationSpeed is the programmed-burn front speed (default 4.0 in
	// domain units/time).
	DetonationSpeed float64

	// InitialDT bounds the first step (default 1e-4).
	InitialDT float64
}

// DefaultMaterials returns the deck's material EOS set, in scaled units
// (domain length ~1, initial sound speeds O(1-10)).
func DefaultMaterials() [mesh.NumMaterials]EOS {
	var m [mesh.NumMaterials]EOS
	// Unreacted explosive behaves as a solid (stiffened term); once burned
	// its cells switch to gamma-law product gas.
	m[mesh.HEGas] = EOS{Rho0: 1.6, Gamma: 3.0, C0: 2.5, E0: 1e-6, DetonationEnergy: 0.4}
	m[mesh.AluminumInner] = EOS{Rho0: 2.7, Gamma: 2.0, C0: 5.0, E0: 1e-6}
	m[mesh.Foam] = EOS{Rho0: 0.3, Gamma: 1.4, C0: 0.8, E0: 1e-6, CrushPressure: 0.05}
	m[mesh.AluminumOuter] = EOS{Rho0: 2.7, Gamma: 2.0, C0: 5.0, E0: 1e-6}
	return m
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Materials[mesh.HEGas].Rho0 == 0 {
		out.Materials = DefaultMaterials()
	}
	if out.CFL <= 0 {
		out.CFL = 0.2
	}
	if out.QLinear <= 0 {
		out.QLinear = 0.5
	}
	if out.QQuad <= 0 {
		out.QQuad = 2.0
	}
	if out.HourglassDamping < 0 {
		out.HourglassDamping = 0
	} else if out.HourglassDamping == 0 {
		out.HourglassDamping = 0.5
	}
	if out.DetonationSpeed <= 0 {
		out.DetonationSpeed = 4.0
	}
	if out.InitialDT <= 0 {
		out.InitialDT = 1e-4
	}
	return out
}

// State is the hydrodynamic state of one (sub)grid.
type State struct {
	Mesh *mesh.Mesh
	Opt  Options

	// Node fields.
	X, Y      []float64 // positions (deform over time)
	U, V      []float64 // velocities
	NodeMass  []float64 // summed corner masses (full values incl. remote contributions)
	FX, FY    []float64 // accumulated nodal forces
	massLocal []float64 // this subgrid's partial corner masses
	fxLocal   []float64
	fyLocal   []float64
	OnAxis    []bool // reflective boundary (x = 0 axis of rotation)

	// Cell fields.
	Rho, En, P, Q []float64 // density, specific internal energy, pressure, viscosity
	Vol, CMass    []float64 // current volume (area) and fixed cell mass
	H0            []float64 // initial length scale sqrt(area) per cell
	hgPower       []float64 // hourglass dissipation rate, fed back as heat
	contactHeat   []float64 // kinetic energy removed by contact, fed back as heat
	BurnTime      []float64 // programmed-burn ignition time (+Inf for inert)
	BurnTau       []float64 // burn ramp duration (front transit time per cell)
	BurnFrac      []float64 // fraction of detonation energy deposited so far
	Burned        []bool    // burn started (EOS switched to product gas)

	// Scalars.
	Time  float64
	DT    float64
	Cycle int

	// EnergyReleased accumulates detonation energy deposited so far (this
	// subgrid's cells only).
	EnergyReleased float64
}

// NewState initializes the state for a deck (or extracted subgrid deck).
// Burn times are programmed as distance from the detonator divided by the
// detonation speed.
func NewState(d *mesh.Deck, opt Options) (*State, error) {
	if d == nil || d.Mesh == nil {
		return nil, fmt.Errorf("hydro: nil deck")
	}
	o := (&opt).withDefaults()
	m := d.Mesh
	nn, nc := m.NumNodes(), m.NumCells()
	s := &State{
		Mesh: m, Opt: o,
		X: make([]float64, nn), Y: make([]float64, nn),
		U: make([]float64, nn), V: make([]float64, nn),
		NodeMass: make([]float64, nn), FX: make([]float64, nn), FY: make([]float64, nn),
		massLocal: make([]float64, nn), fxLocal: make([]float64, nn), fyLocal: make([]float64, nn),
		OnAxis: make([]bool, nn),
		Rho:    make([]float64, nc), En: make([]float64, nc),
		P: make([]float64, nc), Q: make([]float64, nc),
		Vol: make([]float64, nc), CMass: make([]float64, nc),
		H0: make([]float64, nc), hgPower: make([]float64, nc),
		contactHeat: make([]float64, nc),
		BurnTime:    make([]float64, nc), BurnTau: make([]float64, nc),
		BurnFrac: make([]float64, nc), Burned: make([]bool, nc),
		DT: o.InitialDT,
	}
	copy(s.X, m.NodeX)
	copy(s.Y, m.NodeY)
	for n := 0; n < nn; n++ {
		s.OnAxis[n] = m.NodeX[n] == 0
	}
	for c := 0; c < nc; c++ {
		mat := m.CellMaterial[c]
		eos := o.Materials[mat]
		area := polyArea(s, c)
		if area <= 0 {
			return nil, fmt.Errorf("hydro: cell %d has non-positive initial area", c)
		}
		s.Vol[c] = area
		s.H0[c] = math.Sqrt(area)
		s.Rho[c] = eos.Rho0
		s.En[c] = eos.E0
		s.CMass[c] = eos.Rho0 * area
		if mat == mesh.HEGas && eos.DetonationEnergy > 0 {
			cx, cy := cellCenter(s, c)
			dist := math.Hypot(cx-d.DetonatorX, cy-d.DetonatorY)
			// A detonator region (not a single point) ignites together,
			// then the front propagates outward: distributed ignition is
			// far less singular than a one-cell point source.
			h := math.Sqrt(area)
			ignitionRadius := 2 * h
			if dist < ignitionRadius {
				dist = 0
			}
			s.BurnTime[c] = dist / o.DetonationSpeed
			// Energy ramps in over several front-transit times across the
			// cell, avoiding an unphysical instantaneous deposit.
			s.BurnTau[c] = 3 * h / o.DetonationSpeed
		} else {
			s.BurnTime[c] = math.Inf(1)
		}
	}
	return s, nil
}

func polyArea(s *State, c int) float64 {
	n := s.Mesh.CellNodes[c]
	var a float64
	for i := 0; i < 4; i++ {
		j := (i + 1) % 4
		a += s.X[n[i]]*s.Y[n[j]] - s.X[n[j]]*s.Y[n[i]]
	}
	return a / 2
}

func cellCenter(s *State, c int) (x, y float64) {
	n := s.Mesh.CellNodes[c]
	for _, id := range n {
		x += s.X[id]
		y += s.Y[id]
	}
	return x / 4, y / 4
}

// charLength returns a characteristic cell length: area / longest diagonal.
func charLength(s *State, c int) float64 {
	n := s.Mesh.CellNodes[c]
	d1 := math.Hypot(s.X[n[2]]-s.X[n[0]], s.Y[n[2]]-s.Y[n[0]])
	d2 := math.Hypot(s.X[n[3]]-s.X[n[1]], s.Y[n[3]]-s.Y[n[1]])
	d := math.Max(d1, d2)
	if d == 0 {
		return 0
	}
	return s.Vol[c] / d * 2
}

// Diagnostics summarizes conserved quantities.
type Diagnostics struct {
	Time           float64
	Cycle          int
	TotalMass      float64
	InternalEnergy float64
	KineticEnergy  float64
	EnergyReleased float64
	BurnedCells    int
	MaxPressure    float64
	MinVolume      float64
}

// Diag computes this (sub)grid's diagnostics. Kinetic energy uses the
// subgrid's locally owned nodal mass share so parallel partial diagnostics
// sum to the serial value.
func (s *State) Diag() Diagnostics {
	d := Diagnostics{Time: s.Time, Cycle: s.Cycle, MinVolume: math.Inf(1), EnergyReleased: s.EnergyReleased}
	for c := 0; c < s.Mesh.NumCells(); c++ {
		d.TotalMass += s.CMass[c]
		d.InternalEnergy += s.CMass[c] * s.En[c]
		if s.P[c] > d.MaxPressure {
			d.MaxPressure = s.P[c]
		}
		if s.Vol[c] < d.MinVolume {
			d.MinVolume = s.Vol[c]
		}
		if s.Burned[c] {
			d.BurnedCells++
		}
	}
	for n := 0; n < s.Mesh.NumNodes(); n++ {
		// Use the local partial mass so cross-rank sums do not double
		// count shared nodes.
		d.KineticEnergy += 0.5 * s.massLocal[n] * (s.U[n]*s.U[n] + s.V[n]*s.V[n])
	}
	return d
}
