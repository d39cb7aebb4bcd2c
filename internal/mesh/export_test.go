package mesh

import "fmt"

// Test fixtures and oracles shared by this package's tests.

// BuildTwoMaterialDeck builds a two-region deck: high-explosive gas on
// the left half and the probe material on the right half, so a vertical
// split follows the material interface.
func BuildTwoMaterialDeck(w, h int, probe Material) (*Deck, error) {
	if w%2 != 0 {
		return nil, fmt.Errorf("mesh: two-material deck needs even width, got %d", w)
	}
	lx := 1.0
	ly := float64(h) / float64(w)
	m, err := BuildStructured(w, h, lx, ly, func(cx, cy int) Material {
		if cx < w/2 {
			return HEGas
		}
		return probe
	})
	if err != nil {
		return nil, err
	}
	return &Deck{
		Name:       fmt.Sprintf("two-material-%v-%dx%d", probe, w, h),
		Mesh:       m,
		DetonatorX: 0,
		DetonatorY: 0.45 * ly,
	}, nil
}

// Validate checks structural invariants: CCW positive areas, face-cell
// consistency, and four faces per cell.
func (m *Mesh) Validate() error {
	if len(m.CellMaterial) != m.NumCells() {
		return fmt.Errorf("mesh: inconsistent cell arrays: %d cells, %d materials",
			m.NumCells(), len(m.CellMaterial))
	}
	if len(m.NodeX) != len(m.NodeY) {
		return fmt.Errorf("mesh: node coordinate arrays differ: %d vs %d", len(m.NodeX), len(m.NodeY))
	}
	for c := range m.CellNodes {
		if a := m.CellArea(c); a <= 0 {
			return fmt.Errorf("mesh: cell %d has non-positive area %g (nodes not CCW?)", c, a)
		}
	}
	faces := make([]int, m.NumCells())
	for fi, f := range m.Faces {
		if f.C0 < 0 || int(f.C0) >= m.NumCells() {
			return fmt.Errorf("mesh: face %d references invalid cell C0", fi)
		}
		if f.C1 >= int32(m.NumCells()) {
			return fmt.Errorf("mesh: face %d references invalid cell C1", fi)
		}
		faces[f.C0]++
		if f.C1 >= 0 {
			faces[f.C1]++
		}
	}
	for c, n := range faces {
		if n != 4 {
			return fmt.Errorf("mesh: cell %d has %d faces, want 4", c, n)
		}
	}
	return nil
}

// NumFaces returns the number of faces.
func (m *Mesh) NumFaces() int { return len(m.Faces) }

// CellArea returns the signed area of cell c via the shoelace formula;
// positive for counter-clockwise node ordering.
func (m *Mesh) CellArea(c int) float64 {
	n := m.CellNodes[c]
	var a float64
	for i := 0; i < 4; i++ {
		j := (i + 1) % 4
		a += m.NodeX[n[i]]*m.NodeY[n[j]] - m.NodeX[n[j]]*m.NodeY[n[i]]
	}
	return a / 2
}
