package hydro

import (
	"math"
	"testing"

	"krak/internal/mesh"
	"krak/internal/partition"
)

func smallDeck(t testing.TB, w, h int) *mesh.Deck {
	t.Helper()
	d, err := mesh.BuildLayeredDeck(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEOSPressure(t *testing.T) {
	gas := EOS{Rho0: 1.6, Gamma: 3.0}
	if got, want := gas.Pressure(2, 5), 2.0*2*5; got != want {
		t.Fatalf("gamma-law p = %v, want %v", got, want)
	}
	// No tension support.
	stiff := EOS{Rho0: 2.7, Gamma: 2, C0: 5}
	if got := stiff.Pressure(2.0, 0); got != 0 {
		t.Fatalf("tension not clamped: %v", got)
	}
	// Compression resists.
	if got := stiff.Pressure(3.0, 0); got <= 0 {
		t.Fatalf("compressed solid p = %v", got)
	}
	// Foam crush caps the elastic term.
	foam := EOS{Rho0: 0.3, Gamma: 1.4, C0: 0.8, CrushPressure: 0.05}
	pCrush := foam.Pressure(3.0, 0)
	if pCrush > 0.05001 {
		t.Fatalf("crush cap violated: %v", pCrush)
	}
	if cs := gas.SoundSpeed(1.6, 1); cs <= 0 {
		t.Fatalf("sound speed %v", cs)
	}
	if cs := stiff.SoundSpeed(0, 0); cs != 5 {
		t.Fatalf("fallback sound speed %v", cs)
	}
}

func TestNewStateInitialization(t *testing.T) {
	d := smallDeck(t, 16, 8)
	s, err := NewState(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Densities match material references; detonator programs HE cells.
	mats := DefaultMaterials()
	heCells, finiteBurn := 0, 0
	for c := 0; c < s.Mesh.NumCells(); c++ {
		mat := s.Mesh.CellMaterial[c]
		if s.Rho[c] != mats[mat].Rho0 {
			t.Fatalf("cell %d rho = %v, want %v", c, s.Rho[c], mats[mat].Rho0)
		}
		if mat == mesh.HEGas {
			heCells++
			if !math.IsInf(s.BurnTime[c], 1) {
				finiteBurn++
			}
		} else if !math.IsInf(s.BurnTime[c], 1) {
			t.Fatalf("inert cell %d has burn time", c)
		}
	}
	if heCells == 0 || finiteBurn != heCells {
		t.Fatalf("burn programming: %d HE cells, %d programmed", heCells, finiteBurn)
	}
	// Axis nodes flagged.
	axis := 0
	for n := 0; n < s.Mesh.NumNodes(); n++ {
		if s.OnAxis[n] {
			axis++
		}
	}
	if axis != 9 { // h+1 nodes on x=0
		t.Fatalf("axis nodes = %d, want 9", axis)
	}
	if _, err := NewState(nil, Options{}); err == nil {
		t.Fatal("nil deck accepted")
	}
}

func TestUniformStateStaysAtRest(t *testing.T) {
	// A single-material deck with no detonation must not move: uniform
	// pressure means zero net nodal force.
	d, err := mesh.BuildUniformDeck(8, 4, mesh.Foam)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewState(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := Step(s, Serial{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < s.Mesh.NumNodes(); n++ {
		// Boundary nodes feel the one-sided pressure of the foam (free
		// surface), so motion is allowed there; interior nodes of a
		// uniform grid must stay put if their force cancels. With free
		// boundaries everywhere the block expands slightly; just require
		// finite, small velocities.
		if math.IsNaN(s.U[n]) || math.Abs(s.U[n]) > 1 || math.Abs(s.V[n]) > 1 {
			t.Fatalf("node %d velocity exploded: (%v,%v)", n, s.U[n], s.V[n])
		}
	}
	if s.Cycle != 10 {
		t.Fatalf("cycle = %d", s.Cycle)
	}
}

func TestDetonationReleasesEnergyAndDrivesFlow(t *testing.T) {
	d := smallDeck(t, 20, 10)
	s, err := NewState(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	de0 := s.Diag()
	e0 := de0.InternalEnergy + de0.KineticEnergy
	steps := 0
	for s.Diag().BurnedCells == 0 && steps < 200 {
		if err := Step(s, Serial{}, nil); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if s.Diag().BurnedCells == 0 {
		t.Fatal("no cells burned in 200 steps")
	}
	// Run a little further and check energy accounting.
	for i := 0; i < 20; i++ {
		if err := Step(s, Serial{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	diag := s.Diag()
	if diag.EnergyReleased <= 0 {
		t.Fatal("no energy released")
	}
	if diag.KineticEnergy <= 0 {
		t.Fatal("detonation produced no motion")
	}
	if diag.MaxPressure <= 0 {
		t.Fatal("no pressure developed")
	}
	// Conservation: total energy == initial + released, within tolerance
	// for the first-order scheme with viscosity and hourglass damping.
	want := e0 + diag.EnergyReleased
	got := diag.InternalEnergy + diag.KineticEnergy
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Fatalf("energy drift %.2f%%: total %v, want %v", rel*100, got, want)
	}
}

func TestMassExactlyConserved(t *testing.T) {
	d := smallDeck(t, 16, 8)
	s, err := NewState(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.Diag().TotalMass
	for i := 0; i < 50; i++ {
		if err := Step(s, Serial{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if m1 := s.Diag().TotalMass; m1 != m0 {
		t.Fatalf("mass changed: %v -> %v", m0, m1)
	}
}

func TestAxisReflection(t *testing.T) {
	d := smallDeck(t, 20, 10)
	s, err := NewState(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := Step(s, Serial{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < s.Mesh.NumNodes(); n++ {
		if s.OnAxis[n] && s.U[n] != 0 {
			t.Fatalf("axis node %d has radial velocity %v", n, s.U[n])
		}
	}
}

func TestTimestepPositiveAndBounded(t *testing.T) {
	d := smallDeck(t, 16, 8)
	s, err := NewState(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := s.DT
	for i := 0; i < 30; i++ {
		if err := Step(s, Serial{}, nil); err != nil {
			t.Fatal(err)
		}
		if s.DT <= 0 {
			t.Fatalf("dt = %v at cycle %d", s.DT, s.Cycle)
		}
		if s.DT > prev*1.1000001 {
			t.Fatalf("dt grew too fast: %v -> %v", prev, s.DT)
		}
		prev = s.DT
	}
	if s.Time <= 0 {
		t.Fatal("time did not advance")
	}
}

func TestPhaseTimersAccumulate(t *testing.T) {
	d := smallDeck(t, 16, 8)
	s, err := NewState(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var timers PhaseSeconds
	for i := 0; i < 3; i++ {
		if err := Step(s, Serial{}, &timers); err != nil {
			t.Fatal(err)
		}
	}
	var total float64
	for _, v := range timers {
		if v < 0 {
			t.Fatal("negative phase time")
		}
		total += v
	}
	if total <= 0 {
		t.Fatal("timers did not accumulate")
	}
}

func TestExtractSubgrid(t *testing.T) {
	d := smallDeck(t, 8, 4)
	g := partition.FromMesh(d.Mesh)
	part, err := partition.NewMultilevel(1).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	totalCells := 0
	for rank := 0; rank < 4; rank++ {
		sub, err := ExtractSubgrid(d, part, 4, rank)
		if err != nil {
			t.Fatal(err)
		}
		totalCells += len(sub.GlobalCells)
		// Local cell materials match global.
		for lc, gc := range sub.GlobalCells {
			if sub.Deck.Mesh.CellMaterial[lc] != d.Mesh.CellMaterial[gc] {
				t.Fatalf("rank %d cell %d material mismatch", rank, lc)
			}
		}
		// Shared node lists are consistent: every shared node's global id
		// is incident to cells of both ranks.
		for _, nb := range sub.Neighbors {
			if nb.Rank == rank {
				t.Fatal("self neighbor")
			}
			for _, l := range nb.SharedNodes {
				g := sub.GlobalNodes[l]
				touchesMine, touchesTheirs := false, false
				for _, c := range d.Mesh.NodeCells()[g] {
					switch part[c] {
					case rank:
						touchesMine = true
					case nb.Rank:
						touchesTheirs = true
					}
				}
				if !touchesMine || !touchesTheirs {
					t.Fatalf("rank %d node %d not genuinely shared with %d", rank, g, nb.Rank)
				}
			}
		}
	}
	if totalCells != d.Mesh.NumCells() {
		t.Fatalf("subgrids cover %d cells, want %d", totalCells, d.Mesh.NumCells())
	}
	if _, err := ExtractSubgrid(d, part[:3], 4, 0); err == nil {
		t.Fatal("short partition accepted")
	}
	if _, err := ExtractSubgrid(d, part, 4, 9); err == nil {
		t.Fatal("bad rank accepted")
	}
}

func TestSharedNodeListsMirror(t *testing.T) {
	d := smallDeck(t, 8, 4)
	g := partition.FromMesh(d.Mesh)
	part, err := partition.NewMultilevel(1).Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*Subgrid, 3)
	for r := range subs {
		s, err := ExtractSubgrid(d, part, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		subs[r] = s
	}
	for r, sub := range subs {
		for _, nb := range sub.Neighbors {
			// Find the mirror link.
			var mirror *NeighborLink
			for i := range subs[nb.Rank].Neighbors {
				if subs[nb.Rank].Neighbors[i].Rank == r {
					mirror = &subs[nb.Rank].Neighbors[i]
				}
			}
			if mirror == nil {
				t.Fatalf("rank %d -> %d has no mirror", r, nb.Rank)
			}
			if len(mirror.SharedNodes) != len(nb.SharedNodes) {
				t.Fatalf("shared node count mismatch %d vs %d", len(mirror.SharedNodes), len(nb.SharedNodes))
			}
			if mirror.SharedFaces != nb.SharedFaces {
				t.Fatalf("shared face mismatch")
			}
			// Same global ids in the same order.
			for i := range nb.SharedNodes {
				g1 := sub.GlobalNodes[nb.SharedNodes[i]]
				g2 := subs[nb.Rank].GlobalNodes[mirror.SharedNodes[i]]
				if g1 != g2 {
					t.Fatalf("shared node order mismatch at %d: %d vs %d", i, g1, g2)
				}
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	d := smallDeck(t, 16, 8)
	const steps = 25
	serial, err := NewState(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if err := Step(serial, Serial{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	sd := serial.Diag()

	g := partition.FromMesh(d.Mesh)
	for _, p := range []int{2, 4} {
		part, err := partition.NewMultilevel(1).Partition(g, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunParallel(d, part, p, steps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pd := res.Diag
		if pd.Cycle != sd.Cycle {
			t.Fatalf("p=%d cycle %d vs %d", p, pd.Cycle, sd.Cycle)
		}
		check := func(name string, a, b float64, tol float64) {
			if b == 0 && a == 0 {
				return
			}
			if rel := math.Abs(a-b) / math.Max(math.Abs(b), 1e-30); rel > tol {
				t.Errorf("p=%d %s: parallel %v vs serial %v (rel %.2e)", p, name, a, b, rel)
			}
		}
		check("mass", pd.TotalMass, sd.TotalMass, 1e-12)
		check("internal", pd.InternalEnergy, sd.InternalEnergy, 1e-6)
		check("kinetic", pd.KineticEnergy, sd.KineticEnergy, 1e-6)
		check("released", pd.EnergyReleased, sd.EnergyReleased, 1e-12)
		check("time", pd.Time, sd.Time, 1e-9)
		if pd.BurnedCells != sd.BurnedCells {
			t.Errorf("p=%d burned %d vs %d", p, pd.BurnedCells, sd.BurnedCells)
		}
	}
}

func TestParallelPhaseTimers(t *testing.T) {
	d := smallDeck(t, 8, 4)
	g := partition.FromMesh(d.Mesh)
	part, err := partition.NewMultilevel(1).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParallel(d, part, 2, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range res.PhaseSeconds {
		total += v
	}
	if total <= 0 {
		t.Fatal("no phase times recorded")
	}
}
