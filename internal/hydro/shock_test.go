package hydro

import (
	"math"
	"testing"

	"krak/internal/mesh"
)

// shockState builds a Riemann-like setup: a uniform gas bar with a hot
// left region, producing a right-moving shock — the classic qualitative
// validation for a compressible hydro scheme.
func shockState(t *testing.T, w, h int) *State {
	t.Helper()
	d, err := mesh.BuildUniformDeck(w, h, mesh.HEGas)
	if err != nil {
		t.Fatal(err)
	}
	var opt Options
	opt.Materials = DefaultMaterials()
	opt.Materials[mesh.HEGas].DetonationEnergy = 0 // no burn in this test
	s, err := NewState(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < s.Mesh.NumCells(); c++ {
		s.Burned[c] = true // gamma-law gas everywhere
		if c%w < w/4 {
			s.En[c] = 1.0 // hot driver region
		}
	}
	return s
}

// shockFront locates the rightmost column whose pressure exceeds half the
// maximum.
func shockFront(s *State, w int) int {
	maxP := 0.0
	for _, p := range s.P {
		if p > maxP {
			maxP = p
		}
	}
	front := 0
	for c := 0; c < s.Mesh.NumCells(); c++ {
		if s.P[c] > maxP/2 {
			if col := c % w; col > front {
				front = col
			}
		}
	}
	return front
}

func TestShockPropagatesRight(t *testing.T) {
	const w, h = 48, 4
	s := shockState(t, w, h)
	de0 := s.Diag()
	e0 := de0.InternalEnergy + de0.KineticEnergy

	var fronts []int
	for i := 0; i < 240; i++ {
		if err := Step(s, Serial{}, nil); err != nil {
			t.Fatal(err)
		}
		if i%40 == 39 {
			fronts = append(fronts, shockFront(s, w))
		}
	}
	// The front must advance monotonically and actually move.
	for i := 1; i < len(fronts); i++ {
		if fronts[i] < fronts[i-1] {
			t.Fatalf("shock front retreated: %v", fronts)
		}
	}
	if fronts[len(fronts)-1] <= w/4+2 {
		t.Fatalf("shock never left the driver region: %v", fronts)
	}

	// Energy conservation (free boundaries do no work; no burn).
	de1 := s.Diag()
	e1 := de1.InternalEnergy + de1.KineticEnergy
	if rel := math.Abs(e1-e0) / e0; rel > 0.03 {
		t.Fatalf("energy drift %.2f%% over shock run", rel*100)
	}

	// Shocked material moves rightward (positive u) ahead of the driver.
	var rightward, wrong int
	for n := 0; n < s.Mesh.NumNodes(); n++ {
		if s.U[n] > 1e-6 {
			rightward++
		}
		// Strong leftward motion would indicate a sign error.
		if s.U[n] < -0.5 {
			wrong++
		}
	}
	if rightward == 0 {
		t.Fatal("no rightward motion behind the shock")
	}
	if wrong > s.Mesh.NumNodes()/10 {
		t.Fatalf("%d nodes moving hard left (driver expansion should push right)", wrong)
	}
}

func TestShockHeatsCompressedGas(t *testing.T) {
	const w, h = 48, 4
	s := shockState(t, w, h)
	for i := 0; i < 160; i++ {
		if err := Step(s, Serial{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Just ahead of the driver, gas must be compressed (rho > rho0) and
	// heated (e > initial 1e-6) — shock heating, not adiabatic cooling.
	rho0 := DefaultMaterials()[mesh.HEGas].Rho0
	heated := 0
	for c := 0; c < s.Mesh.NumCells(); c++ {
		col := c % w
		if col > w/4 && col < w/2 && s.Rho[c] > rho0*1.02 && s.En[c] > 1e-4 {
			heated++
		}
	}
	if heated == 0 {
		t.Fatal("no shock-heated cells found ahead of the driver")
	}
}

func TestQualityDegradesGracefullyUnderDetonation(t *testing.T) {
	// After a detonation transient the mesh deforms but must not invert.
	d, err := mesh.BuildLayeredDeck(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewState(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := Step(s, Serial{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Cell volumes are the shoelace areas of the current coordinates, so
	// a non-positive minimum is an inverted cell.
	if v := s.Diag().MinVolume; v <= 0 {
		t.Fatalf("min cell volume %v after detonation: a cell inverted", v)
	}
}
