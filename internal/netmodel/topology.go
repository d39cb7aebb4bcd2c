package netmodel

import (
	"fmt"
	"math"
)

// This file refines the paper's flat TreeDepth-based collective models
// (Equations (8)-(10)) with physical-topology terms. The paper's single
// validation platform made the flat model exact enough; comparing machine
// generations (fat-tree Infiniband clusters, dragonfly and 3D-torus
// exascale-era systems) needs the two effects a flat tree hides:
//
//   - distance: a tree-stage message traverses Hops(p) switch hops, each
//     beyond the first adding HopLatency to the stage's start-up cost;
//   - contention: payload crossing the network bisection contends for its
//     links, inflating the per-byte cost by Congestion(p) >= 1.
//
// One tree stage of a collective over p processors then costs
//
//	Tstage(S, p) = (L(S) + S * TB(S)) * Congestion(p) + (Hops(p)-1)*Lhop
//
// and the collectives keep their Equation (8)-(10) shapes on top of it:
// Bcast = log2(P)*Tstage, Allreduce = 2*log2(P)*Tstage, Gather =
// log2(P)*Tstage. The flat topology has Hops = Congestion = 1, so a model
// without an explicit topology reproduces the paper's collectives exactly,
// and every topology degrades to flat at small p (one switch, one group,
// or a sub-bisection payload).
//
// Hops and Congestion are non-decreasing in p by construction; the
// property suite in topology_test.go pins that, the flat-at-small-p
// reduction, and the Allreduce >= Bcast lower bound.

// TopologyKind names a physical interconnect topology.
type TopologyKind string

// The supported topologies.
const (
	// TopoFlat is the paper's model: every stage is one full-latency
	// message, no distance or bisection terms. The zero Topology value.
	TopoFlat TopologyKind = "flat"

	// TopoFatTree is a full-bisection folded Clos built from Radix-port
	// switches: distance grows with tier count, contention stays 1.
	TopoFatTree TopologyKind = "fat-tree"

	// TopoDragonfly groups GroupSize nodes behind local switches joined by
	// a global all-to-all: minimal routes are local-global-local, and
	// tapered global links add mild contention once traffic leaves the
	// group.
	TopoDragonfly TopologyKind = "dragonfly"

	// TopoTorus3D is a 3D torus: distance grows with the cube root of the
	// machine and the bisection grows only as p^(2/3), so contention
	// climbs at scale.
	TopoTorus3D TopologyKind = "torus"
)

// Topology describes the physical shape of the interconnect. The zero
// value is the flat (paper) topology. Construct non-flat topologies with
// the FatTree/Dragonfly/Torus3D helpers or validate literals with
// Validate.
type Topology struct {
	Kind TopologyKind

	// HopLatency is the extra start-up cost, in seconds, of each switch
	// hop beyond the first on a stage's route.
	HopLatency float64

	// Radix is the fat-tree switch port count; each edge switch serves
	// Radix/2 nodes.
	Radix int

	// GroupSize is the dragonfly group width in nodes.
	GroupSize int

	// Dims are the torus dimensions. All zero means dims are derived from
	// p as a near-cubic box; fixed dims cap the distance term at the
	// machine's physical diameter while contention keeps growing with p.
	DimX, DimY, DimZ int
}

// FatTree returns a full-bisection fat-tree topology of radix-port
// switches.
func FatTree(radix int, hopLatency float64) Topology {
	return Topology{Kind: TopoFatTree, Radix: radix, HopLatency: hopLatency}
}

// Dragonfly returns a dragonfly topology with groupSize-node groups.
func Dragonfly(groupSize int, hopLatency float64) Topology {
	return Topology{Kind: TopoDragonfly, GroupSize: groupSize, HopLatency: hopLatency}
}

// Torus3D returns a 3D-torus topology. Zero dims derive a near-cubic box
// from the processor count.
func Torus3D(x, y, z int, hopLatency float64) Topology {
	return Topology{Kind: TopoTorus3D, DimX: x, DimY: y, DimZ: z, HopLatency: hopLatency}
}

// IsFlat reports whether the topology is the paper's flat model.
func (t Topology) IsFlat() bool { return t.Kind == "" || t.Kind == TopoFlat }

// Validate checks the topology's parameters.
func (t Topology) Validate() error {
	if math.IsNaN(t.HopLatency) || t.HopLatency < 0 || t.HopLatency > 1 {
		return fmt.Errorf("netmodel: hop latency %g out of range [0, 1] seconds", t.HopLatency)
	}
	switch t.Kind {
	case "", TopoFlat:
		return nil
	case TopoFatTree:
		if t.Radix < 4 || t.Radix > 1024 {
			return fmt.Errorf("netmodel: fat-tree radix %d out of range [4, 1024]", t.Radix)
		}
	case TopoDragonfly:
		if t.GroupSize < 2 || t.GroupSize > 1<<20 {
			return fmt.Errorf("netmodel: dragonfly group size %d out of range [2, 2^20]", t.GroupSize)
		}
	case TopoTorus3D:
		fixed := t.DimX != 0 || t.DimY != 0 || t.DimZ != 0
		if fixed && (t.DimX < 1 || t.DimY < 1 || t.DimZ < 1 ||
			t.DimX > 1<<10 || t.DimY > 1<<10 || t.DimZ > 1<<10) {
			return fmt.Errorf("netmodel: torus dims %dx%dx%d must all be in [1, 1024] (or all 0 to derive from p)",
				t.DimX, t.DimY, t.DimZ)
		}
	default:
		return fmt.Errorf("netmodel: unknown topology kind %q", t.Kind)
	}
	return nil
}

// String renders the topology for display ("fat-tree radix 36", ...).
func (t Topology) String() string {
	switch t.Kind {
	case "", TopoFlat:
		return "flat"
	case TopoFatTree:
		return fmt.Sprintf("fat-tree radix %d", t.Radix)
	case TopoDragonfly:
		return fmt.Sprintf("dragonfly groups of %d", t.GroupSize)
	case TopoTorus3D:
		if t.DimX != 0 || t.DimY != 0 || t.DimZ != 0 {
			return fmt.Sprintf("%dx%dx%d torus", t.DimX, t.DimY, t.DimZ)
		}
		return "torus (derived dims)"
	}
	return string(t.Kind)
}

// Hops returns the average switch-hop count of one tree-stage message at
// scale p: >= 1, non-decreasing in p, and exactly 1 when the machine fits
// a single switch or group (the flat reduction).
func (t Topology) Hops(p int) float64 {
	if p < 1 {
		p = 1
	}
	switch t.Kind {
	case TopoFatTree:
		// Tiers multiply reach by Radix/2; a route climbs to the common
		// ancestor and back down: 2*tiers - 1 switch hops.
		down := t.Radix / 2
		tiers := 1
		reach := down
		for reach < p && tiers < 64 {
			reach *= down
			tiers++
		}
		return float64(2*tiers - 1)
	case TopoDragonfly:
		// G groups: 1/G of pairs stay local (1 hop), the rest take the
		// minimal local-global-local route (3 hops).
		g := ceilDiv(p, t.GroupSize)
		return 3 - 2/float64(g)
	case TopoTorus3D:
		// Average per-dimension distance on a ring of n nodes is n/4, so a
		// route across an nx x ny x nz torus averages (nx+ny+nz)/4 hops.
		// Fixed dims give the machine's physical diameter; derived dims use
		// the smooth near-cubic limit 3*cbrt(p)/4 (a discrete ceil-built box
		// re-shapes as p grows and is not monotone in p).
		var h float64
		if t.DimX != 0 {
			h = float64(t.DimX+t.DimY+t.DimZ) / 4
		} else {
			h = 0.75 * math.Cbrt(float64(p))
		}
		if h < 1 {
			return 1
		}
		return h
	}
	return 1
}

// Congestion returns the bisection-contention multiplier on the per-byte
// cost at scale p: >= 1 and non-decreasing in p. Full-bisection topologies
// (flat, fat-tree) stay at 1.
func (t Topology) Congestion(p int) float64 {
	if p < 1 {
		p = 1
	}
	switch t.Kind {
	case TopoDragonfly:
		// Tapered global links: contention approaches 2x as the group
		// count grows, 1 inside a single group.
		g := ceilDiv(p, t.GroupSize)
		return 2 - 1/float64(g)
	case TopoTorus3D:
		// p/2 endpoints worth of traffic cross a bisection of 2*a*b
		// wraparound links, where a and b span the cut plane across the
		// longest dimension. Derived dims use the smooth cubic limit
		// a*b = p^(2/3), giving contention cbrt(p)/4.
		var c float64
		if t.DimX != 0 {
			a, b := cutPlane(t.DimX, t.DimY, t.DimZ)
			c = float64(p) / (4 * float64(a) * float64(b))
		} else {
			c = math.Cbrt(float64(p)) / 4
		}
		if c < 1 {
			return 1
		}
		return c
	}
	return 1
}

// cutPlane returns the two smaller of the three dims — the plane of the
// bisection cut across the longest dimension.
func cutPlane(x, y, z int) (a, b int) {
	if x >= y && x >= z {
		return y, z
	}
	if y >= x && y >= z {
		return x, z
	}
	return x, y
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// WithTopology returns a copy of the model whose collectives account for
// the given physical topology; the point-to-point MsgTime (Equation (4))
// is unchanged — neighbor exchanges are modeled as near, collectives as
// machine-spanning. An invalid topology returns an error; a flat topology
// returns a model byte-identical in behaviour to the receiver.
func (m *Model) WithTopology(t Topology) (*Model, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	out := &Model{name: m.name, segments: m.segments, topo: t}
	return out, nil
}

// stageTime is the cost of one collective tree stage at scale p: the
// point-to-point message time plus the topology's distance and
// bisection-contention terms. With a flat topology it equals MsgTime.
func (m *Model) stageTime(p, bytes int) float64 {
	if bytes < 0 {
		bytes = 0
	}
	s := m.segmentFor(bytes)
	msg := s.Latency + float64(bytes)*s.PerByte
	if m.topo.IsFlat() {
		return msg
	}
	// Congestion scales the whole stage message time (service time under
	// load), not the per-byte term alone: the piecewise tables trade higher
	// start-up for better bandwidth across segment boundaries, and scaling
	// only the bandwidth term would break monotonicity in bytes there.
	return msg*m.topo.Congestion(p) + (m.topo.Hops(p)-1)*m.topo.HopLatency
}
