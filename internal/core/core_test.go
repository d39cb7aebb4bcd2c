package core

import (
	"math"
	"testing"

	"krak/internal/compute"
	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/partition"
	"krak/internal/phases"
)

// truthProfile fabricates a noiseless "No MPI" profiling backend directly
// from a ground-truth table. Experiments use the cluster simulator instead;
// unit tests use this double to isolate the calibration math.
func truthProfile(tt *compute.TruthTable) ProfileFunc {
	return func(sum *mesh.PartitionSummary) ([phases.Count][]float64, error) {
		var out [phases.Count][]float64
		for ph := 1; ph <= phases.Count; ph++ {
			ts := make([]float64, sum.P)
			for pe := 0; pe < sum.P; pe++ {
				ts[pe] = tt.PhaseTime(ph, sum.CellsByMaterial[pe])
			}
			out[ph-1] = ts
		}
		return out, nil
	}
}

// table3Boundary mirrors the Figure 4 / Table 3 example.
func table3Boundary() *mesh.PairBoundary {
	b := &mesh.PairBoundary{Key: mesh.MakePairKey(0, 1)}
	b.FacesByMaterial[mesh.HEGas] = 3
	b.FacesByMaterial[mesh.AluminumInner] = 2
	b.FacesByMaterial[mesh.Foam] = 3
	b.FacesByMaterial[mesh.AluminumOuter] = 2
	b.FacesByGroup[mesh.GroupHEGas] = 3
	b.FacesByGroup[mesh.GroupAluminum] = 4
	b.FacesByGroup[mesh.GroupFoam] = 3
	b.TotalFaces = 10
	b.GhostNodes = 11
	b.OwnedByA = 6
	b.OwnedByB = 5
	b.MultiGroupGhosts = 3
	b.MultiGroupGhostsByGroup[mesh.GroupHEGas] = 1
	b.MultiGroupGhostsByGroup[mesh.GroupAluminum] = 3
	b.MultiGroupGhostsByGroup[mesh.GroupFoam] = 2
	return b
}

func TestBoundaryExchangeTimeMatchesMessageEnumeration(t *testing.T) {
	net := netmodel.QsNetI()
	b := table3Boundary()
	// With both refinements the model must charge exactly the sum of the
	// Table 3 message times.
	var want float64
	for _, m := range phases.BoundaryExchangeMessages(b) {
		want += net.MsgTime(m.Bytes)
	}
	got := BoundaryExchangeTime(net, b, BoundaryExchangeOptions{
		CombineIdenticalMaterials: true,
		GhostSurcharge:            true,
	})
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("BoundaryExchangeTime = %v, want %v", got, want)
	}
}

func TestBoundaryExchangePlainEquation5(t *testing.T) {
	net := netmodel.QsNetI()
	b := table3Boundary()
	// Plain Equation (5): per material (4 steps, aluminum twice), no ghost
	// surcharge: 6*Tmsg(12*faces_m) each, plus 6*Tmsg(12*total).
	var want float64
	for m := 0; m < mesh.NumMaterials; m++ {
		if f := b.FacesByMaterial[m]; f > 0 {
			want += 6 * net.MsgTime(12*f)
		}
	}
	want += 6 * net.MsgTime(12*10)
	got := BoundaryExchangeTime(net, b, BoundaryExchangeOptions{})
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("plain Eq5 = %v, want %v", got, want)
	}
	// The plain form splits aluminum and must therefore cost more than the
	// combined form (more message latencies).
	combined := BoundaryExchangeTime(net, b, BoundaryExchangeOptions{CombineIdenticalMaterials: true})
	if got <= combined {
		t.Fatalf("splitting materials (%v) should cost more than combining (%v)", got, combined)
	}
}

func TestGhostUpdateTime(t *testing.T) {
	net := netmodel.QsNetI()
	b := table3Boundary()
	want := net.MsgTime(8*6) + net.MsgTime(8*5)
	if got := GhostUpdateTime(net, b, 0, 8); math.Abs(got-want) > 1e-15 {
		t.Fatalf("GhostUpdateTime = %v, want %v", got, want)
	}
	// Symmetric from the other side.
	a := GhostUpdateTime(net, b, 0, 16)
	c := GhostUpdateTime(net, b, 1, 16)
	if math.Abs(a-c) > 1e-15 {
		t.Fatalf("ghost update time asymmetric: %v vs %v", a, c)
	}
}

func calibrated(t *testing.T) *compute.Calibrated {
	t.Helper()
	cal, err := (&Calibrator{Profile: truthProfile(compute.ES45().WithoutNoise())}).Contrived(nil)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func TestContrivedCalibrationRecoversTruth(t *testing.T) {
	tt := compute.ES45().WithoutNoise()
	cal := calibrated(t)
	// At the sampled sizes, the calibrated per-cell cost must match the
	// truth exactly (noiseless profiling, sample points are knots).
	for _, n := range []int{1, 64, 4096, 131072} {
		for m := 0; m < mesh.NumMaterials; m++ {
			for ph := 1; ph <= phases.Count; ph++ {
				want := tt.PerCellCost(ph, mesh.Material(m), n)
				got := cal.PerCell(ph, mesh.Material(m), n)
				if math.Abs(got-want) > 1e-12*math.Max(1, want) {
					t.Fatalf("phase %d %v n=%d: calibrated %v, truth %v",
						ph, mesh.Material(m), n, got, want)
				}
			}
		}
	}
	// Between knots, log-space interpolation keeps the error under ~15%.
	for _, n := range []int{3, 48, 3000, 100000} {
		for ph := 1; ph <= phases.Count; ph++ {
			want := tt.PerCellCost(ph, mesh.HEGas, n)
			got := cal.PerCell(ph, mesh.HEGas, n)
			if rel := math.Abs(got-want) / want; rel > 0.15 {
				t.Fatalf("phase %d n=%d: interpolation error %.1f%%", ph, n, rel*100)
			}
		}
	}
}

func TestMeshSpecificPrediction(t *testing.T) {
	d, err := mesh.BuildLayeredDeck(80, 40)
	if err != nil {
		t.Fatal(err)
	}
	g := partition.FromMesh(d.Mesh)
	part, err := partition.NewMultilevel(1).Partition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := mesh.Summarize(d.Mesh, part, 16)
	if err != nil {
		t.Fatal(err)
	}
	cal := calibrated(t)
	net := netmodel.QsNetI()
	m := NewMeshSpecific(cal, net)
	pred, err := m.Predict(sum)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Total <= 0 {
		t.Fatalf("prediction = %+v", pred)
	}
	// Total equals the sum of phase totals.
	var s float64
	for ph := 1; ph <= phases.Count; ph++ {
		s += pred.PhaseTotal(ph)
	}
	if math.Abs(s-pred.Total) > 1e-12 {
		t.Fatal("phase totals do not sum to Total")
	}
	// Compute share per phase is the max over PEs of the calibrated time.
	tt := compute.ES45().WithoutNoise()
	for ph := 1; ph <= phases.Count; ph++ {
		var want float64
		for pe := 0; pe < 16; pe++ {
			if v := tt.PhaseTime(ph, sum.CellsByMaterial[pe]); v > want {
				want = v
			}
		}
		got := pred.PhaseCompute[ph-1]
		if math.Abs(got-want)/want > 0.15 {
			t.Fatalf("phase %d compute %v far from truth max %v", ph, got, want)
		}
	}
	// Only the phases Table 1 marks with point-to-point traffic carry it.
	for i, ph := range phases.Table1() {
		if ph.HasPointToPoint() && pred.PhaseP2P[i] <= 0 {
			t.Errorf("phase %d missing p2p time", ph.Number)
		}
		if !ph.HasPointToPoint() && pred.PhaseP2P[i] != 0 {
			t.Errorf("phase %d has unexpected p2p time", ph.Number)
		}
		if pred.PhaseCollective[i] <= 0 {
			t.Errorf("phase %d missing collective time", ph.Number)
		}
	}
	if pred.Compute()+pred.Communication()-pred.Total > 1e-12 {
		t.Fatal("compute+comm != total")
	}
}

func TestMeshSpecificValidation(t *testing.T) {
	cal := calibrated(t)
	net := netmodel.QsNetI()
	if _, err := (&MeshSpecific{Costs: cal, Net: net}).Predict(nil); err == nil {
		t.Fatal("nil summary accepted")
	}
	if _, err := (&MeshSpecific{Net: net}).Predict(&mesh.PartitionSummary{P: 1}); err == nil {
		t.Fatal("missing costs accepted")
	}
	if _, err := (&MeshSpecific{Costs: cal}).Predict(&mesh.PartitionSummary{P: 1}); err == nil {
		t.Fatal("missing net accepted")
	}
}

func TestGeneralModelModes(t *testing.T) {
	cal := calibrated(t)
	net := netmodel.QsNetI()
	const cells = 204800
	for _, p := range []int{16, 128, 512} {
		het, err := NewGeneral(cal, net, Heterogeneous).Predict(cells, p)
		if err != nil {
			t.Fatal(err)
		}
		hom, err := NewGeneral(cal, net, Homogeneous).Predict(cells, p)
		if err != nil {
			t.Fatal(err)
		}
		// Homogeneous compute takes the worst material, so it cannot be
		// below the heterogeneous mixture in any phase.
		for ph := 1; ph <= phases.Count; ph++ {
			if hom.PhaseCompute[ph-1] < het.PhaseCompute[ph-1]-1e-12 {
				t.Fatalf("P=%d phase %d: homo compute %v < hetero %v",
					p, ph, hom.PhaseCompute[ph-1], het.PhaseCompute[ph-1])
			}
		}
		// Heterogeneous boundary exchange splits into more messages and
		// must cost at least as much as homogeneous.
		if het.PhaseP2P[1] < hom.PhaseP2P[1]-1e-12 {
			t.Fatalf("P=%d: hetero exchange %v < homo %v", p, het.PhaseP2P[1], hom.PhaseP2P[1])
		}
	}
	if Heterogeneous.String() != "Heterogeneous" || Homogeneous.String() != "Homogeneous" {
		t.Fatal("mode names wrong")
	}
	if MaterialMode(9).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

func TestGeneralModelStrongScaling(t *testing.T) {
	cal := calibrated(t)
	net := netmodel.QsNetI()
	g := NewGeneral(cal, net, Homogeneous)
	prev := math.Inf(1)
	for _, p := range []int{16, 32, 64, 128, 256, 512} {
		pred, err := g.Predict(819200, p)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Total >= prev {
			t.Fatalf("general model not strong-scaling at P=%d: %v >= %v", p, pred.Total, prev)
		}
		prev = pred.Total
	}
}

func TestGeneralModelValidation(t *testing.T) {
	cal := calibrated(t)
	net := netmodel.QsNetI()
	g := NewGeneral(cal, net, Homogeneous)
	if _, err := g.Predict(0, 4); err == nil {
		t.Fatal("0 cells accepted")
	}
	if _, err := g.Predict(100, 0); err == nil {
		t.Fatal("0 PEs accepted")
	}
	bad := NewGeneral(cal, net, MaterialMode(9))
	if _, err := bad.Predict(100, 4); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestGeneralSubgridCounts(t *testing.T) {
	cal := calibrated(t)
	g := NewGeneral(cal, netmodel.QsNetI(), Heterogeneous)
	counts := g.subgridCounts(1000)
	total := 0
	for m, n := range counts {
		total += n
		wantFrac := mesh.Table2Heterogeneous[m]
		if math.Abs(float64(n)/1000-wantFrac) > 0.01 {
			t.Errorf("material %d count %d, want ~%.1f", m, n, wantFrac*1000)
		}
	}
	if total != 1000 {
		t.Fatalf("counts sum to %d, want 1000", total)
	}
}

func TestFromDeckCalibration(t *testing.T) {
	tt := compute.ES45().WithoutNoise()
	d, err := mesh.BuildLayeredDeck(160, 80) // 12,800 cells
	if err != nil {
		t.Fatal(err)
	}
	g := partition.FromMesh(d.Mesh)
	var samples []DeckSample
	for _, p := range []int{4, 8, 16, 32} {
		part, err := partition.NewMultilevel(1).Partition(g, p)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := mesh.Summarize(d.Mesh, part, p)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, DeckSample{Summary: sum})
	}
	cal, err := (&Calibrator{Profile: truthProfile(tt)}).FromDeck(samples)
	if err != nil {
		t.Fatal(err)
	}
	// The recovered per-cell costs at the sampled subgrid sizes should be
	// close to truth for materials with decent representation.
	for _, n := range []int{12800 / 4, 12800 / 32} {
		for ph := 1; ph <= phases.Count; ph++ {
			want := tt.PerCellCost(ph, mesh.HEGas, n)
			got := cal.PerCell(ph, mesh.HEGas, n)
			if rel := math.Abs(got-want) / want; rel > 0.30 {
				t.Fatalf("phase %d n=%d: least-squares error %.1f%% (got %v want %v)",
					ph, n, rel*100, got, want)
			}
		}
	}
}

func TestFromDeckValidation(t *testing.T) {
	c := &Calibrator{Profile: truthProfile(compute.ES45())}
	if _, err := c.FromDeck(nil); err == nil {
		t.Fatal("no samples accepted")
	}
	if _, err := c.FromDeck([]DeckSample{{Summary: &mesh.PartitionSummary{P: 1}}}); err == nil {
		t.Fatal("single-PE campaign accepted")
	}
	bad := &Calibrator{}
	if _, err := bad.Contrived(nil); err == nil {
		t.Fatal("missing profile accepted")
	}
	if _, err := bad.FromDeck(nil); err == nil {
		t.Fatal("missing profile accepted in FromDeck")
	}
}

func TestSolvePhaseFallback(t *testing.T) {
	// All PEs identical: the 5-unknown system is singular, so the solver
	// must fall back to the material-independent fit — and with identical
	// cell counts everywhere even that is degenerate, leaving pure
	// per-cell costs.
	sum := &mesh.PartitionSummary{
		P:               3,
		CellsByMaterial: make([][mesh.NumMaterials]int, 3),
		TotalCells:      []int{100, 100, 100},
	}
	for pe := 0; pe < 3; pe++ {
		sum.CellsByMaterial[pe][mesh.Foam] = 100
	}
	coeffs, err := solvePhase(sum, []float64{1e-3, 1e-3, 1e-3}, []int{int(mesh.Foam)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coeffs.perCell[mesh.Foam]-1e-5) > 1e-12 {
		t.Fatalf("fallback per-cell = %v, want 1e-5", coeffs.perCell[mesh.Foam])
	}
}
