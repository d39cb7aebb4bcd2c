package mesh

import (
	"math"
	"testing"
)

func TestStandardSizesMatchPaper(t *testing.T) {
	// §2.1: small 3,200; medium 204,800; large 819,200 cells.
	if w, h := Small.Dims(); w*h != 3200 {
		t.Fatalf("Small = %dx%d, want 3200 cells", w, h)
	}
	if w, h := Medium.Dims(); w*h != 204800 {
		t.Fatalf("Medium = %dx%d, want 204800 cells", w, h)
	}
	if w, h := Large.Dims(); w*h != 819200 {
		t.Fatalf("Large = %dx%d, want 819200 cells", w, h)
	}
	if w, h := Figure2.Dims(); w*h != 65536 {
		t.Fatalf("Figure2 = %dx%d, want 65536 cells", w, h)
	}
	if Small.String() != "Small" || StandardSize(99).String() == "" {
		t.Fatal("StandardSize.String broken")
	}
}

func TestBuildStandardDeck(t *testing.T) {
	d, err := BuildStandardDeck(Small)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mesh.NumCells() != 3200 {
		t.Fatalf("cells = %d", d.Mesh.NumCells())
	}
	if d.Name != "Small" {
		t.Fatalf("name = %q", d.Name)
	}
	if err := d.Mesh.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildStandardDeck(StandardSize(99)); err == nil {
		t.Fatal("unknown size accepted")
	}
}

func TestLayeredDeckRatiosMatchTable2(t *testing.T) {
	// On the medium deck the measured ratios should be within grid
	// resolution (~1 column = 1/640) of Table 2.
	d, err := BuildStandardDeck(Medium)
	if err != nil {
		t.Fatal(err)
	}
	fracs := d.Mesh.MaterialFractions()
	for m := 0; m < NumMaterials; m++ {
		if diff := math.Abs(fracs[m] - Table2Heterogeneous[m]); diff > 0.004 {
			t.Errorf("%v fraction = %.4f, want %.4f +- 0.004",
				Material(m), fracs[m], Table2Heterogeneous[m])
		}
	}
}

func TestLayeredDeckLayerOrder(t *testing.T) {
	d, err := BuildLayeredDeck(80, 40)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Mesh
	// Scanning a row from the axis outward must encounter the materials in
	// deck order with no interleaving.
	prev := HEGas
	for cx := 0; cx < 80; cx++ {
		mat := m.CellMaterial[20*80+cx]
		if mat < prev {
			t.Fatalf("materials out of order at column %d: %v after %v", cx, mat, prev)
		}
		prev = mat
	}
	// The innermost column is HE gas; the outermost is outer aluminum.
	if m.CellMaterial[0] != HEGas {
		t.Fatal("first column is not HE gas")
	}
	if m.CellMaterial[79] != AluminumOuter {
		t.Fatal("last column is not outer aluminum")
	}
}

func TestDetonatorPlacement(t *testing.T) {
	d, err := BuildLayeredDeck(80, 40)
	if err != nil {
		t.Fatal(err)
	}
	if d.DetonatorX != 0 {
		t.Fatalf("detonator x = %v, want on axis (0)", d.DetonatorX)
	}
	ly := 40.0 / 80.0
	if d.DetonatorY >= ly/2 || d.DetonatorY <= 0 {
		t.Fatalf("detonator y = %v, want slightly below center (%v)", d.DetonatorY, ly/2)
	}
}

func TestBuildUniformDeck(t *testing.T) {
	d, err := BuildUniformDeck(10, 5, Foam)
	if err != nil {
		t.Fatal(err)
	}
	for c, m := range d.Mesh.CellMaterial {
		if m != Foam {
			t.Fatalf("cell %d material = %v, want Foam", c, m)
		}
	}
	counts := d.Mesh.MaterialCounts()
	if counts[Foam] != 50 {
		t.Fatalf("foam count = %d", counts[Foam])
	}
}

func TestBuildTwoMaterialDeck(t *testing.T) {
	d, err := BuildTwoMaterialDeck(8, 4, AluminumInner)
	if err != nil {
		t.Fatal(err)
	}
	counts := d.Mesh.MaterialCounts()
	if counts[HEGas] != 16 || counts[AluminumInner] != 16 {
		t.Fatalf("counts = %v, want 16/16 split", counts)
	}
	if _, err := BuildTwoMaterialDeck(7, 4, Foam); err == nil {
		t.Fatal("odd width accepted")
	}
}

func TestMaterialFractionsEmptyMesh(t *testing.T) {
	m := &Mesh{}
	fr := m.MaterialFractions()
	for _, f := range fr {
		if f != 0 {
			t.Fatal("empty mesh should have zero fractions")
		}
	}
}
