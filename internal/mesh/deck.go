package mesh

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
)

// Table2Heterogeneous is the global material ratio of the paper's input deck
// (Table 2, "Hetero." row): the fractions of H.E. gas, inner aluminum, foam,
// and outer aluminum cells.
var Table2Heterogeneous = [NumMaterials]float64{0.391, 0.172, 0.203, 0.234}

// Deck is an input problem: a mesh with materials assigned, plus the
// metadata the hydro code needs (detonator placement). A built Deck is
// immutable apart from the mesh's internal lazily-built indices, which are
// themselves synchronized, so one cached Deck may be read by any number of
// concurrent engine jobs.
type Deck struct {
	Name string
	Mesh *Mesh

	// DetonatorX, DetonatorY is the detonation point. The paper places the
	// detonator on the axis of rotation (x = 0), slightly below center.
	DetonatorX, DetonatorY float64

	cacheKeyOnce sync.Once
	cacheKey     string
}

// CacheKey returns the deck's content identity: a SHA-256 fingerprint
// of what derived artifacts read — the grid dimensions, the detonator,
// and the per-cell materials (every constructor derives node coordinates
// from W and H). The name is left out, so decks of one content share
// their graph, partitions, plans and calibrations whatever they are
// called; the hash is cryptographic because no name separates decks and
// ParseDeck inputs are user text. Computed once and memoized; safe for
// concurrent callers.
func (d *Deck) CacheKey() string {
	d.cacheKeyOnce.Do(func() {
		h := sha256.New()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		put(uint64(d.Mesh.W))
		put(uint64(d.Mesh.H))
		put(math.Float64bits(d.DetonatorX))
		put(math.Float64bits(d.DetonatorY))
		mats := make([]byte, len(d.Mesh.CellMaterial))
		for i, m := range d.Mesh.CellMaterial {
			mats[i] = byte(m)
		}
		h.Write(mats)
		d.cacheKey = hex.EncodeToString(h.Sum(nil))
	})
	return d.cacheKey
}

// StandardSize identifies one of the paper's three studied decks plus the
// Figure 2 deck.
type StandardSize int

// The paper's deck sizes (§2.1 and Figure 2).
const (
	Small   StandardSize = iota // 3,200 cells  (80×40)
	Medium                      // 204,800 cells (640×320)
	Large                       // 819,200 cells (1280×640)
	Figure2                     // 65,536 cells  (512×128), used in Figure 2
)

// String names the size as in the paper.
func (s StandardSize) String() string {
	switch s {
	case Small:
		return "Small"
	case Medium:
		return "Medium"
	case Large:
		return "Large"
	case Figure2:
		return "Figure2"
	}
	return fmt.Sprintf("StandardSize(%d)", int(s))
}

// Dims returns the structured grid dimensions used for each standard size.
func (s StandardSize) Dims() (w, h int) {
	switch s {
	case Small:
		return 80, 40
	case Medium:
		return 640, 320
	case Large:
		return 1280, 640
	case Figure2:
		return 512, 128
	}
	return 0, 0
}

// BuildLayeredDeck constructs the paper's input deck on a w×h grid: a 2-D
// rectangular grid that is conceptually rotated about the vertical axis
// (x = 0) to become a cylinder. Radial material layers run along x: a core
// of high-explosive gas, a layer of aluminum, a layer of foam, and a second
// layer of aluminum, with cell-count fractions as close as the grid allows
// to Table 2's heterogeneous ratios. The detonator sits on the axis of
// rotation slightly below the vertical center.
func BuildLayeredDeck(w, h int) (*Deck, error) {
	// Column boundaries from cumulative Table 2 fractions.
	bounds := materialColumnBounds(w)
	matOf := func(cx, cy int) Material {
		for m := 0; m < NumMaterials; m++ {
			if cx < bounds[m] {
				return Material(m)
			}
		}
		return AluminumOuter
	}
	// Physical extent: radial length 1.0, height w:h aspect.
	lx := 1.0
	ly := float64(h) / float64(w)
	m, err := BuildStructured(w, h, lx, ly, matOf)
	if err != nil {
		return nil, err
	}
	return &Deck{
		Name:       fmt.Sprintf("layered-%dx%d", w, h),
		Mesh:       m,
		DetonatorX: 0,
		DetonatorY: 0.45 * ly, // slightly below center
	}, nil
}

// materialColumnBounds returns, for each material, the exclusive upper
// column index of its radial band, chosen so cumulative cell fractions track
// Table 2 as closely as the grid resolution allows.
func materialColumnBounds(w int) [NumMaterials]int {
	var bounds [NumMaterials]int
	cum := 0.0
	for m := 0; m < NumMaterials; m++ {
		cum += Table2Heterogeneous[m]
		bounds[m] = int(math.Round(cum * float64(w)))
	}
	bounds[NumMaterials-1] = w // guard against rounding losses
	return bounds
}

// BuildUniformDeck builds a contrived single-material deck, used by the
// paper's §3.1 calibration methodology ("a contrived spatial grid is used to
// determine how computation time scales with grid size").
func BuildUniformDeck(w, h int, mat Material) (*Deck, error) {
	lx := 1.0
	ly := float64(h) / float64(w)
	m, err := BuildStructured(w, h, lx, ly, func(cx, cy int) Material { return mat })
	if err != nil {
		return nil, err
	}
	return &Deck{
		Name:       fmt.Sprintf("uniform-%v-%dx%d", mat, w, h),
		Mesh:       m,
		DetonatorX: 0,
		DetonatorY: 0.45 * ly,
	}, nil
}
