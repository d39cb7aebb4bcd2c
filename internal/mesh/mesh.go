// Package mesh implements the spatial-grid substrate of the Krak
// reproduction: an unstructured 2-D quadrilateral mesh of cells, faces, and
// nodes, the four-material layered-cylinder input decks described in §2.1 of
// the paper, and the partition summaries (cell counts by material, boundary
// faces, ghost nodes) that both the performance model and the cluster
// simulator consume.
//
// Terminology follows the paper: objects are mapped onto a spatial grid of
// cells; each cell is defined by four faces, which are composed of
// connections between nodes. Ghost nodes are nodes whose associated faces
// comprise boundaries between processors. Each cell is assigned exactly one
// material.
package mesh

import (
	"fmt"
	"sync"
)

// Material identifies one of the four materials in the paper's input deck.
type Material uint8

// The deck materials, ordered as in Table 2 of the paper.
const (
	HEGas Material = iota
	AluminumInner
	Foam
	AluminumOuter
)

// NumMaterials is the number of distinct materials in the deck.
const NumMaterials = 4

// String returns the paper's name for the material.
func (m Material) String() string {
	switch m {
	case HEGas:
		return "H.E. Gas"
	case AluminumInner:
		return "Aluminum (Inner)"
	case Foam:
		return "Foam"
	case AluminumOuter:
		return "Aluminum (Outer)"
	}
	return fmt.Sprintf("Material(%d)", uint8(m))
}

// ExchangeGroup identifies a boundary-exchange material group. Identical
// materials — the two aluminum layers in the paper's deck — are treated as
// one material during boundary exchanges (§4.1).
type ExchangeGroup uint8

// The exchange groups for the paper's deck.
const (
	GroupHEGas ExchangeGroup = iota
	GroupAluminum
	GroupFoam
)

// NumExchangeGroups is the number of distinct boundary-exchange groups.
const NumExchangeGroups = 3

// Group maps a material to its boundary-exchange group.
func (m Material) Group() ExchangeGroup {
	switch m {
	case HEGas:
		return GroupHEGas
	case AluminumInner, AluminumOuter:
		return GroupAluminum
	default:
		return GroupFoam
	}
}

// String names the exchange group.
func (g ExchangeGroup) String() string {
	switch g {
	case GroupHEGas:
		return "H.E. Gas"
	case GroupAluminum:
		return "Aluminum (both)"
	case GroupFoam:
		return "Foam"
	}
	return fmt.Sprintf("ExchangeGroup(%d)", uint8(g))
}

// Face is an edge of the mesh shared by one or two cells.
type Face struct {
	N0, N1 int32 // node ids
	C0, C1 int32 // adjacent cell ids; C1 == -1 on the domain boundary
}

// Interior reports whether the face separates two cells.
func (f Face) Interior() bool { return f.C1 >= 0 }

// Mesh is an unstructured 2-D quadrilateral mesh. Meshes built by the
// structured generators also record their logical W×H cell layout, which the
// visualizers and some tests exploit; W and H are zero for genuinely
// unstructured meshes.
type Mesh struct {
	W, H int // structured layout in cells, or 0,0

	// Node coordinates.
	NodeX, NodeY []float64

	// CellNodes lists the four corner nodes of each cell in counter-
	// clockwise order.
	CellNodes [][4]int32

	// CellMaterial assigns exactly one material to each cell.
	CellMaterial []Material

	// Faces lists every face once; CellFaces indexes into it per cell.
	Faces     []Face
	CellFaces [][4]int32

	// nodeCells is the node -> incident cells map, built lazily under
	// nodeOnce so concurrent readers of a shared (cached) mesh are safe.
	nodeOnce  sync.Once
	nodeCells [][]int32
}

// NumCells returns the number of cells.
func (m *Mesh) NumCells() int { return len(m.CellNodes) }

// NumNodes returns the number of nodes.
func (m *Mesh) NumNodes() int { return len(m.NodeX) }

// CellCenter returns the centroid of cell c.
func (m *Mesh) CellCenter(c int) (x, y float64) {
	n := m.CellNodes[c]
	for _, id := range n {
		x += m.NodeX[id]
		y += m.NodeY[id]
	}
	return x / 4, y / 4
}

// NodeCells returns the cells incident to each node, building the incidence
// table on first use. The returned slices must not be modified. NodeCells is
// safe to call from concurrent goroutines sharing one mesh — the engine's
// deck cache hands the same *Mesh to parallel jobs.
func (m *Mesh) NodeCells() [][]int32 {
	m.nodeOnce.Do(func() {
		nc := make([][]int32, m.NumNodes())
		for c, nodes := range m.CellNodes {
			for _, n := range nodes {
				nc[n] = append(nc[n], int32(c))
			}
		}
		m.nodeCells = nc
	})
	return m.nodeCells
}

// MaterialCounts returns the number of cells of each material.
func (m *Mesh) MaterialCounts() [NumMaterials]int {
	var counts [NumMaterials]int
	for _, mat := range m.CellMaterial {
		counts[mat]++
	}
	return counts
}

// MaterialFractions returns the fraction of cells of each material.
func (m *Mesh) MaterialFractions() [NumMaterials]float64 {
	counts := m.MaterialCounts()
	var out [NumMaterials]float64
	n := float64(m.NumCells())
	if n == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / n
	}
	return out
}

// BuildStructured constructs a w×h structured quad mesh over the rectangle
// [0,lx]×[0,ly], with materials assigned per cell by the mat callback
// (called with the cell's column and row). Node ids are row-major with node
// (0,0) at the origin; cell ids are row-major as well.
func BuildStructured(w, h int, lx, ly float64, mat func(cx, cy int) Material) (*Mesh, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("mesh: invalid grid %dx%d", w, h)
	}
	if lx <= 0 || ly <= 0 {
		return nil, fmt.Errorf("mesh: invalid extent %gx%g", lx, ly)
	}
	m := &Mesh{W: w, H: h}
	nx, ny := w+1, h+1
	m.NodeX = make([]float64, nx*ny)
	m.NodeY = make([]float64, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			id := j*nx + i
			m.NodeX[id] = lx * float64(i) / float64(w)
			m.NodeY[id] = ly * float64(j) / float64(h)
		}
	}
	node := func(i, j int) int32 { return int32(j*nx + i) }
	cell := func(i, j int) int32 { return int32(j*w + i) }

	m.CellNodes = make([][4]int32, w*h)
	m.CellMaterial = make([]Material, w*h)
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			c := cell(i, j)
			m.CellNodes[c] = [4]int32{node(i, j), node(i+1, j), node(i+1, j+1), node(i, j+1)}
			m.CellMaterial[c] = mat(i, j)
		}
	}

	// Faces: vertical faces at x-index i in [0..w], horizontal at y-index j
	// in [0..h]. Each is emitted once with its adjacent cells.
	m.CellFaces = make([][4]int32, w*h)
	m.Faces = make([]Face, 0, (w+1)*h+w*(h+1))
	fill := make([]int, w*h) // next free slot per cell
	addFace := func(f Face) {
		fi := int32(len(m.Faces))
		m.Faces = append(m.Faces, f)
		c0 := f.C0
		m.CellFaces[c0][fill[c0]] = fi
		fill[c0]++
		if f.C1 >= 0 {
			m.CellFaces[f.C1][fill[f.C1]] = fi
			fill[f.C1]++
		}
	}
	// Vertical faces (between horizontally adjacent cells, plus domain sides).
	for j := 0; j < h; j++ {
		for i := 0; i <= w; i++ {
			f := Face{N0: node(i, j), N1: node(i, j+1)}
			switch {
			case i == 0:
				f.C0, f.C1 = cell(0, j), -1
			case i == w:
				f.C0, f.C1 = cell(w-1, j), -1
			default:
				f.C0, f.C1 = cell(i-1, j), cell(i, j)
			}
			addFace(f)
		}
	}
	// Horizontal faces.
	for j := 0; j <= h; j++ {
		for i := 0; i < w; i++ {
			f := Face{N0: node(i, j), N1: node(i+1, j)}
			switch {
			case j == 0:
				f.C0, f.C1 = cell(i, 0), -1
			case j == h:
				f.C0, f.C1 = cell(i, h-1), -1
			default:
				f.C0, f.C1 = cell(i, j-1), cell(i, j)
			}
			addFace(f)
		}
	}
	for c, n := range fill {
		if n != 4 {
			return nil, fmt.Errorf("mesh: cell %d has %d faces, want 4", c, n)
		}
	}
	return m, nil
}
