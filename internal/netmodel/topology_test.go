package netmodel

import (
	"math"
	"testing"

	"krak/internal/stats"
)

// topologies returns a representative non-flat topology set plus the flat
// baseline, all with a visible hop latency so distance terms matter.
func testTopologies() []Topology {
	return []Topology{
		{}, // flat
		FatTree(8, 0.5e-6),
		FatTree(36, 0.2e-6),
		Dragonfly(4, 0.3e-6),
		Dragonfly(16, 0.3e-6),
		Torus3D(0, 0, 0, 0.5e-6),
		Torus3D(8, 8, 8, 0.5e-6),
	}
}

func TestTopologyValidate(t *testing.T) {
	bad := []Topology{
		{Kind: TopoFatTree, Radix: 2},
		{Kind: TopoFatTree, Radix: 2048},
		{Kind: TopoDragonfly, GroupSize: 1},
		{Kind: TopoTorus3D, DimX: 4, DimY: 0, DimZ: 4},
		{Kind: TopoTorus3D, DimX: 4, DimY: 4, DimZ: 5000},
		{Kind: "hypercube"},
		{Kind: TopoFlat, HopLatency: -1},
		{Kind: TopoFatTree, Radix: 36, HopLatency: math.NaN()},
	}
	for _, tp := range bad {
		if err := tp.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid topology", tp)
		}
	}
	for _, tp := range testTopologies() {
		if err := tp.Validate(); err != nil {
			t.Errorf("Validate(%+v) rejected a valid topology: %v", tp, err)
		}
	}
}

// TestTopologyReducesToFlatAtSmallP pins the flat reduction: while the
// machine fits one switch (fat-tree), one group (dragonfly), or a
// sub-bisection box (torus), every collective must equal the paper's flat
// model exactly.
func TestTopologyReducesToFlatAtSmallP(t *testing.T) {
	flat := QsNetI()
	cases := []struct {
		topo Topology
		maxP int // largest p that must still be flat
	}{
		{FatTree(8, 1e-6), 4},       // one radix-8 edge switch serves 4 nodes
		{FatTree(36, 1e-6), 18},     // radix 36: 18 nodes per switch
		{Dragonfly(16, 1e-6), 16},   // one group
		{Torus3D(0, 0, 0, 1e-6), 2}, // 2x1x1 box: avg distance still <= 1 hop
	}
	for _, c := range cases {
		m := withTopology(t, QsNetI(), c.topo)
		for p := 1; p <= c.maxP; p++ {
			for _, bytes := range []int{0, 64, 4096, 1 << 20} {
				if got, want := m.Bcast(p, bytes), flat.Bcast(p, bytes); got != want {
					t.Errorf("%s: Bcast(p=%d, %dB) = %g, want flat %g", c.topo, p, bytes, got, want)
				}
				if got, want := m.Allreduce(p, bytes), flat.Allreduce(p, bytes); got != want {
					t.Errorf("%s: Allreduce(p=%d, %dB) = %g, want flat %g", c.topo, p, bytes, got, want)
				}
				if got, want := m.Gather(p, bytes), flat.Gather(p, bytes); got != want {
					t.Errorf("%s: Gather(p=%d, %dB) = %g, want flat %g", c.topo, p, bytes, got, want)
				}
			}
		}
	}
}

// TestTopologyFlatModelUnchanged pins that a model without an explicit
// topology and one with the explicit flat topology agree everywhere —
// the regression guard for the paper's goldens.
func TestTopologyFlatModelUnchanged(t *testing.T) {
	base := QsNetI()
	flat := withTopology(t, QsNetI(), Topology{Kind: TopoFlat})
	for _, p := range []int{1, 2, 7, 64, 1024} {
		for _, b := range []int{0, 100, 65536} {
			if base.Bcast(p, b) != flat.Bcast(p, b) ||
				base.Allreduce(p, b) != flat.Allreduce(p, b) ||
				base.Gather(p, b) != flat.Gather(p, b) {
				t.Fatalf("explicit flat topology drifted from the implicit one at p=%d bytes=%d", p, b)
			}
		}
	}
}

// TestTopologyHopsCongestionMonotone pins the structural guarantees the
// collective properties rest on: Hops and Congestion are >= 1 and
// non-decreasing in p for every topology.
func TestTopologyHopsCongestionMonotone(t *testing.T) {
	for _, tp := range testTopologies() {
		prevH, prevC := 0.0, 0.0
		for p := 1; p <= 4096; p++ {
			h, c := tp.Hops(p), tp.Congestion(p)
			if h < 1 || c < 1 {
				t.Fatalf("%s: Hops=%g Congestion=%g < 1 at p=%d", tp, h, c, p)
			}
			if h < prevH || c < prevC {
				t.Fatalf("%s: non-monotone at p=%d: Hops %g -> %g, Congestion %g -> %g",
					tp, p, prevH, h, prevC, c)
			}
			prevH, prevC = h, c
		}
	}
}

// TestTopologyCollectivesMonotone sweeps p and bytes over every preset
// network x topology pair: collective times must be non-decreasing in
// both arguments. (Byte-monotonicity relies on the presets' ordered
// segment tables, pinned separately by TestPresetsAreOrdered.)
func TestTopologyCollectivesMonotone(t *testing.T) {
	nets := []*Model{QsNetI(), GigE(), Infiniband()}
	ps := []int{1, 2, 3, 4, 8, 16, 17, 32, 64, 128, 256, 512, 1024, 4096}
	sizes := []int{0, 1, 63, 64, 512, 4095, 4096, 65536, 1 << 20}
	for _, net := range nets {
		for _, tp := range testTopologies() {
			m := withTopology(t, net, tp)
			for _, bytes := range sizes {
				prev := -1.0
				for _, p := range ps {
					v := m.Allreduce(p, bytes)
					if v < prev {
						t.Fatalf("%s/%s: Allreduce non-monotone in p at p=%d bytes=%d: %g < %g",
							net.Name(), tp, p, bytes, v, prev)
					}
					prev = v
				}
			}
			for _, p := range ps {
				prev := -1.0
				for _, bytes := range sizes {
					v := m.Bcast(p, bytes)
					if v < prev {
						t.Fatalf("%s/%s: Bcast non-monotone in bytes at p=%d bytes=%d: %g < %g",
							net.Name(), tp, p, bytes, v, prev)
					}
					prev = v
				}
			}
		}
	}
}

// TestTopologyAllreduceLowerBounds pins the Equation (9) structure under
// every topology: an all-reduce is a fan-in plus a fan-out, so it costs
// exactly twice a broadcast and never less than one.
func TestTopologyAllreduceLowerBounds(t *testing.T) {
	for _, tp := range testTopologies() {
		m := withTopology(t, Infiniband(), tp)
		for _, p := range []int{1, 2, 5, 64, 1000} {
			for _, bytes := range []int{0, 8, 9000, 1 << 18} {
				b, a, g := m.Bcast(p, bytes), m.Allreduce(p, bytes), m.Gather(p, bytes)
				if a < b {
					t.Fatalf("%s: Allreduce %g < Bcast %g at p=%d bytes=%d", tp, a, b, p, bytes)
				}
				if a != 2*b {
					t.Fatalf("%s: Allreduce %g != 2*Bcast %g at p=%d bytes=%d", tp, a, b, p, bytes)
				}
				if g != b {
					t.Fatalf("%s: Gather %g != Bcast %g at p=%d bytes=%d", tp, g, b, p, bytes)
				}
			}
		}
	}
}

// TestTopologyRandomSegmentsNeverNegative drives every topology over
// seeded-random piecewise segment tables: whatever the (valid) table,
// collective times are finite and non-negative for all p and sizes.
func TestTopologyRandomSegmentsNeverNegative(t *testing.T) {
	rng := stats.NewSplitMix64(0xC0FFEE)
	for trial := 0; trial < 200; trial++ {
		nseg := 1 + int(rng.Next()%6)
		segs := make([]Segment, 0, nseg)
		min := 0
		for i := 0; i < nseg; i++ {
			segs = append(segs, Segment{
				MinBytes: min,
				Latency:  rng.Float64() * 1e-3,
				PerByte:  rng.Float64() * 1e-6,
			})
			min += 1 + int(rng.Next()%100000)
		}
		net, err := New("random", segs)
		if err != nil {
			t.Fatalf("trial %d: random table rejected: %v", trial, err)
		}
		topo := testTopologies()[int(rng.Next()%uint64(len(testTopologies())))]
		m := withTopology(t, net, topo)
		for _, p := range []int{1, 2, int(rng.Next()%1024) + 1, 4096} {
			for _, bytes := range []int{-5, 0, int(rng.Next() % (1 << 22)), 1 << 26} {
				for name, v := range map[string]float64{
					"Bcast":     m.Bcast(p, bytes),
					"Allreduce": m.Allreduce(p, bytes),
					"Gather":    m.Gather(p, bytes),
				} {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Fatalf("trial %d %s/%s(p=%d, bytes=%d) = %g", trial, topo, name, p, bytes, v)
					}
				}
			}
		}
	}
}

// TestTopologyDistanceAndContentionBite sanity-checks that the terms do
// something: at scale, a torus collective is strictly slower than flat,
// a dragonfly sits between flat and torus contention-wise, and a
// full-bisection fat-tree adds only latency (byte-cost unchanged).
func TestTopologyDistanceAndContentionBite(t *testing.T) {
	flat := Infiniband()
	ft := withTopology(t, Infiniband(), FatTree(36, 0.2e-6))
	torus := withTopology(t, Infiniband(), Torus3D(0, 0, 0, 0.2e-6))
	const p, bytes = 1024, 1 << 20
	if !(ft.Bcast(p, bytes) > flat.Bcast(p, bytes)) {
		t.Errorf("fat-tree at p=%d should pay hop latency over flat", p)
	}
	if !(torus.Bcast(p, bytes) > ft.Bcast(p, bytes)) {
		t.Errorf("torus at p=%d should pay bisection contention over fat-tree", p)
	}
	// Fat-tree congestion is exactly 1: large-message slope matches flat.
	dFlat := flat.Bcast(p, 2*bytes) - flat.Bcast(p, bytes)
	dFT := ft.Bcast(p, 2*bytes) - ft.Bcast(p, bytes)
	if math.Abs(dFlat-dFT) > 1e-12 {
		t.Errorf("fat-tree per-byte slope %g drifted from flat %g", dFT, dFlat)
	}
}

// withTopology is WithTopology for the statically valid topologies these
// tests build.
func withTopology(t *testing.T, m *Model, tp Topology) *Model {
	t.Helper()
	out, err := m.WithTopology(tp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
