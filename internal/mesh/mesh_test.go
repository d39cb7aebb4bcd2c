package mesh

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func mustStructured(t *testing.T, w, h int) *Mesh {
	t.Helper()
	m, err := BuildStructured(w, h, 1, float64(h)/float64(w), func(cx, cy int) Material { return Foam })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildStructuredCounts(t *testing.T) {
	m := mustStructured(t, 4, 3)
	if m.NumCells() != 12 {
		t.Fatalf("cells = %d, want 12", m.NumCells())
	}
	if m.NumNodes() != 5*4 {
		t.Fatalf("nodes = %d, want 20", m.NumNodes())
	}
	// Faces: vertical (w+1)*h + horizontal w*(h+1) = 5*3 + 4*4 = 31.
	if m.NumFaces() != 31 {
		t.Fatalf("faces = %d, want 31", m.NumFaces())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The face slice is allocated once at its exact size, never grown by
// append: on full-size decks the growth copies dominated deck building.
func TestBuildStructuredFacesExactCapacity(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {4, 3}, {7, 1}, {160, 80}} {
		w, h := dims[0], dims[1]
		m := mustStructured(t, w, h)
		if want := (w+1)*h + w*(h+1); len(m.Faces) != want {
			t.Errorf("%dx%d: %d faces, want %d", w, h, len(m.Faces), want)
		}
		if cap(m.Faces) != len(m.Faces) {
			t.Errorf("%dx%d: faces cap %d != len %d", w, h, cap(m.Faces), len(m.Faces))
		}
	}
}

func TestBuildStructuredRejectsBadInput(t *testing.T) {
	if _, err := BuildStructured(0, 3, 1, 1, func(cx, cy int) Material { return Foam }); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := BuildStructured(2, 2, -1, 1, func(cx, cy int) Material { return Foam }); err == nil {
		t.Fatal("negative extent accepted")
	}
}

func TestCellGeometry(t *testing.T) {
	m := mustStructured(t, 2, 2) // extent 1 x 1, cells 0.5x0.5
	for c := 0; c < m.NumCells(); c++ {
		if a := m.CellArea(c); math.Abs(a-0.25) > 1e-12 {
			t.Fatalf("cell %d area = %v, want 0.25", c, a)
		}
	}
	x, y := m.CellCenter(0)
	if math.Abs(x-0.25) > 1e-12 || math.Abs(y-0.25) > 1e-12 {
		t.Fatalf("cell 0 center = (%v,%v), want (0.25,0.25)", x, y)
	}
}

func TestNodeCellsIncidence(t *testing.T) {
	m := mustStructured(t, 2, 2)
	nc := m.NodeCells()
	// Center node of a 2x2 grid touches all 4 cells; node id = 1*(w+1)+1 = 4.
	if len(nc[4]) != 4 {
		t.Fatalf("center node incidence = %v", nc[4])
	}
	// Corner node touches 1 cell.
	if len(nc[0]) != 1 {
		t.Fatalf("corner node incidence = %v", nc[0])
	}
	// Cached on second call.
	if &nc[0] == nil || m.NodeCells() == nil {
		t.Fatal("NodeCells cache broken")
	}
}

// TestNodeCellsConcurrent exercises the lazy incidence build from many
// goroutines at once; run under -race it proves a shared cached mesh is
// safe for parallel engine jobs.
func TestNodeCellsConcurrent(t *testing.T) {
	m := mustStructured(t, 16, 16)
	var wg sync.WaitGroup
	results := make([][][]int32, 16)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = m.NodeCells()
		}(g)
	}
	wg.Wait()
	for g, nc := range results {
		if len(nc) != m.NumNodes() {
			t.Fatalf("goroutine %d: %d node entries, want %d", g, len(nc), m.NumNodes())
		}
		if &nc[0] != &results[0][0] {
			t.Fatalf("goroutine %d saw a different incidence table", g)
		}
	}
}

func TestMaterialString(t *testing.T) {
	names := map[Material]string{
		HEGas:         "H.E. Gas",
		AluminumInner: "Aluminum (Inner)",
		Foam:          "Foam",
		AluminumOuter: "Aluminum (Outer)",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if Material(9).String() == "" {
		t.Fatal("unknown material should still render")
	}
}

func TestExchangeGroups(t *testing.T) {
	if HEGas.Group() != GroupHEGas || Foam.Group() != GroupFoam {
		t.Fatal("HE/foam groups wrong")
	}
	if AluminumInner.Group() != GroupAluminum || AluminumOuter.Group() != GroupAluminum {
		t.Fatal("identical materials must share an exchange group (§4.1)")
	}
	if GroupAluminum.String() != "Aluminum (both)" {
		t.Fatalf("group name = %q", GroupAluminum.String())
	}
	if ExchangeGroup(9).String() == "" {
		t.Fatal("unknown group should still render")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := mustStructured(t, 2, 2)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Swap two nodes of a cell to flip its orientation.
	m.CellNodes[0][1], m.CellNodes[0][3] = m.CellNodes[0][3], m.CellNodes[0][1]
	if err := m.Validate(); err == nil {
		t.Fatal("clockwise cell not caught")
	}
}

// Property: every interior face's two cells are distinct and mutually
// adjacent; total face count matches the structured formula.
func TestStructuredFaceProperty(t *testing.T) {
	f := func(wRaw, hRaw uint8) bool {
		w := int(wRaw)%12 + 1
		h := int(hRaw)%12 + 1
		m, err := BuildStructured(w, h, 1, 1, func(cx, cy int) Material { return HEGas })
		if err != nil {
			return false
		}
		if m.NumFaces() != (w+1)*h+w*(h+1) {
			return false
		}
		interior := 0
		for _, f := range m.Faces {
			if f.Interior() {
				interior++
				if f.C0 == f.C1 {
					return false
				}
			}
		}
		return interior == (w-1)*h+w*(h-1) && m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
