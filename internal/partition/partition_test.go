package partition

import (
	"testing"
	"testing/quick"

	"krak/internal/mesh"
)

func buildGraph(t testing.TB, w, h int) *Graph {
	t.Helper()
	d, err := mesh.BuildLayeredDeck(w, h)
	if err != nil {
		t.Fatal(err)
	}
	g := FromMesh(d.Mesh)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func checkPartition(t *testing.T, g *Graph, part []int, k int) {
	t.Helper()
	if len(part) != g.NumVertices() {
		t.Fatalf("partition length %d != %d vertices", len(part), g.NumVertices())
	}
	seen := make([]int, k)
	for v, p := range part {
		if p < 0 || p >= k {
			t.Fatalf("vertex %d in invalid part %d", v, p)
		}
		seen[p]++
	}
	for p, n := range seen {
		if n == 0 {
			t.Fatalf("part %d is empty", p)
		}
	}
}

func TestFromMeshDualGraph(t *testing.T) {
	d, _ := mesh.BuildUniformDeck(3, 3, mesh.Foam)
	g := FromMesh(d.Mesh)
	if g.NumVertices() != 9 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Interior edges of a 3x3 grid: 2*3 + 3*2 = 12; each vertex degree 2..4.
	if len(g.Adjncy) != 24 {
		t.Fatalf("adjacency entries = %d, want 24", len(g.Adjncy))
	}
	if d := g.Xadj[5] - g.Xadj[4]; d != 4 {
		t.Fatalf("center degree = %d", d)
	}
	if d := g.Xadj[1] - g.Xadj[0]; d != 2 {
		t.Fatalf("corner degree = %d", d)
	}
	if g.TotalVWgt() != 9 {
		t.Fatalf("total vertex weight = %d", g.TotalVWgt())
	}
}

func TestGraphValidateCatchesAsymmetry(t *testing.T) {
	g := &Graph{
		Xadj:   []int32{0, 1, 2},
		Adjncy: []int32{1, 0},
		AdjWgt: []int32{2, 3}, // asymmetric weights
		VWgt:   []int32{1, 1},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("asymmetric weights accepted")
	}
	g.AdjWgt = []int32{2, 2}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGraphValidateDeterministicError is the regression test for the
// map-range iteration Validate used to use for the symmetry check: with
// several asymmetric edges, the reported edge depended on map order and
// the message changed run to run. It must now always name the first
// asymmetric edge in vertex order.
func TestGraphValidateDeterministicError(t *testing.T) {
	// Path 0-1-2 with both edges weight-asymmetric.
	g := &Graph{
		Xadj:   []int32{0, 1, 3, 4},
		Adjncy: []int32{1, 0, 2, 1},
		AdjWgt: []int32{1, 2, 3, 4},
		VWgt:   []int32{1, 1, 1},
	}
	const want = "partition: asymmetric edge (0,1)"
	for i := 0; i < 50; i++ {
		err := g.Validate()
		if err == nil {
			t.Fatal("asymmetric weights accepted")
		}
		if err.Error() != want {
			t.Fatalf("run %d: error %q, want %q", i, err, want)
		}
	}
}

func TestCutAndImbalance(t *testing.T) {
	d, _ := mesh.BuildUniformDeck(4, 1, mesh.Foam)
	g := FromMesh(d.Mesh)
	// Path of 4 vertices: cut between {0,1} and {2,3} is one edge.
	part := []int{0, 0, 1, 1}
	if c := Cut(g, part); c != 1 {
		t.Fatalf("cut = %d, want 1", c)
	}
	if im := Imbalance(g, part, 2); im != 1.0 {
		t.Fatalf("imbalance = %v", im)
	}
	part = []int{0, 0, 0, 1}
	if im := Imbalance(g, part, 2); im != 1.5 {
		t.Fatalf("imbalance = %v, want 1.5", im)
	}
	w := PartWeights(g, part, 2)
	if w[0] != 3 || w[1] != 1 {
		t.Fatalf("weights = %v", w)
	}
}

func TestMultilevelSmallDeck(t *testing.T) {
	g := buildGraph(t, 80, 40)
	ml := NewMultilevel(1)
	for _, k := range []int{2, 4, 16} {
		part, err := ml.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, g, part, k)
		if im := Imbalance(g, part, k); im > 1.10 {
			t.Errorf("k=%d imbalance = %.3f, want <= 1.10", k, im)
		}
		// The cut should be far below a strip partition's worst case and
		// in the ballpark of the perimeter heuristic ~ sqrt(cells/k)*k.
		cut := Cut(g, part)
		if cut <= 0 {
			t.Errorf("k=%d cut = %d, want positive", k, cut)
		}
		maxReasonable := int64(6 * 57 * k) // ~6x the ideal square-subgrid perimeter
		if cut > maxReasonable {
			t.Errorf("k=%d cut = %d, want <= %d", k, cut, maxReasonable)
		}
	}
}

func TestMultilevelDeterminism(t *testing.T) {
	g := buildGraph(t, 40, 20)
	a, err := NewMultilevel(7).Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMultilevel(7).Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestMultilevelBeatsStripsOnCut(t *testing.T) {
	g := buildGraph(t, 80, 40)
	const k = 16
	mlPart, err := NewMultilevel(3).Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	stripPart, err := Strips{}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	mlCut, stripCut := Cut(g, mlPart), Cut(g, stripPart)
	if mlCut >= stripCut {
		t.Fatalf("multilevel cut %d not better than strips cut %d", mlCut, stripCut)
	}
}

func TestMultilevelArgValidation(t *testing.T) {
	g := buildGraph(t, 4, 2)
	ml := NewMultilevel(1)
	if _, err := ml.Partition(g, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := ml.Partition(g, 9); err == nil {
		t.Fatal("k > vertices accepted")
	}
	if _, err := ml.Partition(&Graph{Xadj: []int32{0}}, 1); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestMultilevelK1(t *testing.T) {
	g := buildGraph(t, 8, 4)
	part, err := NewMultilevel(1).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must assign everything to part 0")
		}
	}
}

func TestRCB(t *testing.T) {
	g := buildGraph(t, 40, 20)
	for _, k := range []int{2, 3, 8} {
		part, err := RCB{}.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, g, part, k)
		if im := Imbalance(g, part, k); im > 1.15 {
			t.Errorf("rcb k=%d imbalance = %.3f", k, im)
		}
	}
	// RCB without coordinates must fail.
	if _, err := (RCB{}).Partition(&Graph{Xadj: []int32{0, 0}, VWgt: []int32{1}}, 1); err == nil {
		t.Fatal("rcb without coordinates accepted")
	}
}

func TestStripsStructure(t *testing.T) {
	g := buildGraph(t, 16, 4)
	part, err := Strips{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, part, 4)
	// Strips along x: part must be monotone in cell x coordinate.
	for v := 0; v < g.NumVertices(); v++ {
		for u := 0; u < g.NumVertices(); u++ {
			if g.CoordX[v] < g.CoordX[u] && part[v] > part[u] {
				t.Fatalf("strips not monotone: x=%v part=%d vs x=%v part=%d",
					g.CoordX[v], part[v], g.CoordX[u], part[u])
			}
		}
	}
	if (Strips{}).Name() != "strips-x" || (Strips{Vertical: true}).Name() != "strips-y" {
		t.Fatal("strip names wrong")
	}
}

func TestRandomBalanced(t *testing.T) {
	g := buildGraph(t, 20, 10)
	part, err := Random{Seed: 5}.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, part, 8)
	if im := Imbalance(g, part, 8); im > 1.01 {
		t.Fatalf("random round-robin imbalance = %v", im)
	}
	// Random cut should be dramatically worse than multilevel.
	mlPart, _ := NewMultilevel(1).Partition(g, 8)
	if Cut(g, part) < 2*Cut(g, mlPart) {
		t.Fatal("random cut suspiciously good")
	}
}

func TestEvaluate(t *testing.T) {
	g := buildGraph(t, 16, 8)
	p := NewMultilevel(2)
	part, err := p.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := QualityOf(p.Name(), g, part, 4)
	if q.Algorithm != "multilevel-kway" || q.K != 4 {
		t.Fatalf("quality = %+v", q)
	}
	if q.EdgeCut != Cut(g, part) {
		t.Fatal("reported cut mismatch")
	}
	if q.Imbalance < 1 {
		t.Fatalf("imbalance = %v < 1", q.Imbalance)
	}
}

// Property: for random small decks and part counts, the multilevel
// partitioner produces complete, non-empty, reasonably balanced partitions.
func TestMultilevelProperty(t *testing.T) {
	f := func(seedRaw uint16, kRaw uint8) bool {
		k := int(kRaw)%7 + 2
		d, err := mesh.BuildLayeredDeck(24, 12)
		if err != nil {
			return false
		}
		g := FromMesh(d.Mesh)
		ml := NewMultilevel(uint64(seedRaw))
		part, err := ml.Partition(g, k)
		if err != nil {
			return false
		}
		counts := make([]int, k)
		for _, p := range part {
			if p < 0 || p >= k {
				return false
			}
			counts[p]++
		}
		for _, c := range counts {
			if c == 0 {
				return false
			}
		}
		return Imbalance(g, part, k) < 1.35
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMultilevelSmall16(b *testing.B) {
	g := buildGraph(b, 80, 40)
	ml := NewMultilevel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.Partition(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRCBSmall16(b *testing.B) {
	g := buildGraph(b, 80, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (RCB{}).Partition(g, 16); err != nil {
			b.Fatal(err)
		}
	}
}
