package artifacts

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"krak/internal/cluster"
	"krak/internal/compute"
	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/partition"
)

func TestStandardDeckQuickAndFullCacheSeparately(t *testing.T) {
	s := NewStore()
	quick, err := s.StandardDeck(mesh.Small, true)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.StandardDeck(mesh.Small, false)
	if err != nil {
		t.Fatal(err)
	}
	if quick == full {
		t.Fatal("quick and full decks share a cache entry")
	}
	again, err := s.StandardDeck(mesh.Small, true)
	if err != nil {
		t.Fatal(err)
	}
	if again != quick {
		t.Fatal("quick deck was rebuilt instead of served from cache")
	}
}

func TestLayeredDeckCachesByDims(t *testing.T) {
	s := NewStore()
	a, err := s.LayeredDeck(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.LayeredDeck(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical dims rebuilt the deck")
	}
	c, err := s.LayeredDeck(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct dims shared a cache entry")
	}
}

// TestPartitionArtifactsShareOneRun checks the layering contract: the
// graph, vector, and summary of one (deck, partitioner, seed, p) identity
// are each computed once, a summary asked for after the vector derives
// from the cached vector, and different seeds or partitioners key
// separately.
func TestPartitionArtifactsShareOneRun(t *testing.T) {
	s := NewStore()
	d, err := s.LayeredDeck(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := s.Graph(d)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Graph(d)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("graph rebuilt for the same deck")
	}

	ml := partition.NewMultilevel(1)
	v1, err := s.Vector(d, ml, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summary(d, ml, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sum.P != 4 {
		t.Fatalf("summary P = %d, want 4", sum.P)
	}
	// The summary's cell counts must agree with the cached vector — it
	// was built from it, not from an independent partitioning run.
	counts := make([]int, 4)
	for _, pe := range v1 {
		counts[pe]++
	}
	for pe, want := range counts {
		if sum.TotalCells[pe] != want {
			t.Fatalf("summary cells[%d] = %d, vector says %d", pe, sum.TotalCells[pe], want)
		}
	}

	v2, err := s.Vector(d, partition.NewMultilevel(2), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if &v1[0] == &v2[0] {
		t.Fatal("different seeds shared a partition vector")
	}
	rcb := partition.RCB{}
	vr, err := s.Vector(d, rcb, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if &vr[0] == &v1[0] {
		t.Fatal("different partitioners shared a partition vector")
	}
}

// TestStoreSingleFlightConcurrent hammers one identity from many
// goroutines and checks everyone gets the same objects back.
func TestStoreSingleFlightConcurrent(t *testing.T) {
	s := NewStore()
	d, err := s.LayeredDeck(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	ml := partition.NewMultilevel(7)
	const n = 16
	sums := make([]*mesh.PartitionSummary, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sum, err := s.Summary(d, ml, 7, 8)
			if err != nil {
				t.Error(err)
				return
			}
			sums[i] = sum
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if sums[i] != sums[0] {
			t.Fatalf("goroutine %d received a different summary instance", i)
		}
	}
}

func TestVectorErrorPropagates(t *testing.T) {
	s := NewStore()
	d, err := s.LayeredDeck(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// More parts than cells is a partitioner error; it must surface (and
	// be memoized) rather than panic.
	if _, err := s.Vector(d, partition.NewMultilevel(1), 1, 1000); err == nil {
		t.Fatal("oversized part count accepted")
	}
	if _, err := s.Summary(d, partition.NewMultilevel(1), 1, 1000); err == nil {
		t.Fatal("oversized summary accepted")
	}
}

// TestSummaryKeepsNoVector: a summary asked for on its own partitions
// once and lets the cell vector go; only Vector keeps one.
func TestSummaryKeepsNoVector(t *testing.T) {
	s := NewStore()
	d, err := s.LayeredDeck(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	ml := partition.NewMultilevel(1)
	if _, err := s.Summary(d, ml, 1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Plan(d, ml, 1, 4); err != nil {
		t.Fatal(err)
	}
	if n := s.vectors.Len(); n != 0 {
		t.Errorf("the store holds %d vectors after Summary and Plan, want 0", n)
	}
	if n := s.PartitionComputes(); n != 1 {
		t.Errorf("Summary and Plan partitioned %d times, want 1", n)
	}
}

// TestVectorThenSummaryPartitionsOnce: a summary of a held vector reuses
// it — the partition report's and Figure 1's order.
func TestVectorThenSummaryPartitionsOnce(t *testing.T) {
	s := NewStore()
	d, err := s.LayeredDeck(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	ml := partition.NewMultilevel(1)
	if _, err := s.Vector(d, ml, 1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Summary(d, ml, 1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Plan(d, ml, 1, 4); err != nil {
		t.Fatal(err)
	}
	if n := s.PartitionComputes(); n != 1 {
		t.Errorf("Vector, Summary and Plan partitioned %d times, want 1", n)
	}
}

// TestPlanSingleFlightConcurrent: concurrent first asks for one
// partition's plan get one instance, laid out over the Store's summary
// from one partitioning run.
func TestPlanSingleFlightConcurrent(t *testing.T) {
	s := NewStore()
	d, err := s.LayeredDeck(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	ml := partition.NewMultilevel(7)
	const n = 16
	plans := make([]*cluster.Plan, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plan, err := s.Plan(d, ml, 7, 8)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = plan
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d received a different plan instance", i)
		}
	}
	sum, err := s.Summary(d, ml, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].Summary() != sum {
		t.Error("the plan lays out another summary than the Store's")
	}
	if c := s.PartitionComputes(); c != 1 {
		t.Errorf("partitioned %d times, want 1", c)
	}
}

// TestRunnersShareOnePlan runs Runners on many goroutines over one
// Store-held plan, on different interconnects at once, and checks each
// reads exactly what a lone Runner reads: the plan is never written after
// it is built. The race job runs it under the race detector.
func TestRunnersShareOnePlan(t *testing.T) {
	s := NewStore()
	d, err := s.LayeredDeck(48, 24)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan(d, partition.NewMultilevel(3), 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	nets := []*netmodel.Model{netmodel.QsNetI(), netmodel.GigE(), netmodel.Infiniband()}
	cfg := func(i int) cluster.Config {
		return cluster.Config{Net: nets[i%len(nets)], Costs: compute.ES45(), SerializeSends: i%2 == 1}
	}
	want := make([]float64, 2*len(nets))
	for i := range want {
		_, mean, err := cluster.SimulateIterations(plan, cfg(i), 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mean
	}
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := i % len(want)
			_, mean, err := cluster.SimulateIterations(plan, cfg(k), 3)
			if err != nil {
				t.Error(err)
				return
			}
			if math.Float64bits(mean) != math.Float64bits(want[k]) {
				t.Errorf("goroutine %d: mean %v, a lone Runner read %v", i, mean, want[k])
			}
		}(i)
	}
	wg.Wait()
}

// TestStoreSharesIdenticalMeshes: under quick scaling Medium and Large are
// one 320x160 mesh, so the store keeps one mesh, graph, summary and plan
// for both while each deck keeps its own name; the other sizes stay apart.
func TestStoreSharesIdenticalMeshes(t *testing.T) {
	s := NewStore()
	decks := map[mesh.StandardSize]*mesh.Deck{}
	for _, sz := range []mesh.StandardSize{mesh.Small, mesh.Medium, mesh.Large, mesh.Figure2} {
		d, err := s.StandardDeck(sz, true)
		if err != nil {
			t.Fatal(err)
		}
		if want := sz.String() + "-quick"; d.Name != want {
			t.Errorf("%v deck named %q, want %q", sz, d.Name, want)
		}
		decks[sz] = d
	}
	medium, large := decks[mesh.Medium], decks[mesh.Large]
	if medium == large {
		t.Fatal("Medium and Large are one *Deck; each must keep its own name")
	}
	if medium.Mesh != large.Mesh {
		t.Fatal("Medium and Large built the same mesh twice")
	}
	custom, err := s.LayeredDeck(320, 160)
	if err != nil {
		t.Fatal(err)
	}
	if custom.Mesh != medium.Mesh {
		t.Fatal("the custom 320x160 deck does not share the quick Medium mesh")
	}
	graph := func(d *mesh.Deck) *partition.Graph {
		g, err := s.Graph(d)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if graph(medium) != graph(large) {
		t.Fatal("Medium and Large extracted the same graph twice")
	}

	ml := partition.NewMultilevel(1)
	const p = 24
	sumM, err := s.Summary(medium, ml, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	planM, err := s.Plan(medium, ml, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	computes := s.PartitionComputes()
	sumL, err := s.Summary(large, ml, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	planL, err := s.Plan(large, ml, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PartitionComputes(); got != computes {
		t.Errorf("Large at p=%d partitioned %d more times after Medium", p, got-computes)
	}
	if sumL != sumM || planL != planM {
		t.Error("Large holds its own summary or plan beside Medium's")
	}

	small, fig2 := decks[mesh.Small], decks[mesh.Figure2]
	for _, pair := range [][2]*mesh.Deck{{small, fig2}, {small, medium}, {fig2, medium}} {
		a, b := pair[0], pair[1]
		if a.Mesh == b.Mesh || a.CacheKey() == b.CacheKey() || graph(a) == graph(b) {
			t.Errorf("%s and %s share a mesh, key or graph", a.Name, b.Name)
		}
	}
}

// TestPartitionErrorNamesItsCaller: decks of one content share a flight,
// so what a partition run returns names no deck, and each caller's error
// names its own deck and wraps the partitioner's — also when Medium and
// Large ask at once on a cold store and one joins the other's flight.
func TestPartitionErrorNamesItsCaller(t *testing.T) {
	quickPair := func(s *Store) (medium, large *mesh.Deck) {
		t.Helper()
		medium, err := s.StandardDeck(mesh.Medium, true)
		if err != nil {
			t.Fatal(err)
		}
		large, err = s.StandardDeck(mesh.Large, true)
		if err != nil {
			t.Fatal(err)
		}
		return medium, large
	}
	ml := partition.NewMultilevel(1)
	for trial := 0; trial < 20; trial++ {
		s := NewStore()
		medium, large := quickPair(s)
		p := medium.Mesh.NumCells() + 1
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, d := range []*mesh.Deck{medium, large} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = s.Summary(d, ml, 1, p)
			}()
		}
		wg.Wait()
		for i, d := range []*mesh.Deck{medium, large} {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), d.Name+" to") {
				t.Fatalf("trial %d: %s's concurrent Summary failed with %v", trial, d.Name, errs[i])
			}
		}
	}

	s := NewStore()
	medium, large := quickPair(s)
	p := medium.Mesh.NumCells() + 1

	_, raw := s.partition(medium, ml, p)
	if raw == nil || strings.Contains(raw.Error(), "quick") {
		t.Fatalf("a partition run returned %v; want an error naming no deck", raw)
	}
	for _, d := range []*mesh.Deck{medium, large} {
		_, errV := s.Vector(d, ml, 1, p)
		_, errS := s.Summary(d, ml, 1, p)
		_, errP := s.Plan(d, ml, 1, p)
		want := fmt.Sprintf("artifacts: partitioning %s to %d parts: %s", d.Name, p, raw)
		for op, err := range map[string]error{"Vector": errV, "Summary": errS, "Plan": errP} {
			if err == nil || err.Error() != want {
				t.Errorf("%s(%s) = %v, want %q", op, d.Name, err, want)
			} else if cause := errors.Unwrap(err); cause == nil || cause.Error() != raw.Error() {
				t.Errorf("%s(%s) wraps %v, want the partitioner's error", op, d.Name, cause)
			}
		}
	}
}

// TestDeckKeyIsContent: over random ParseDeck texts, decks that differ
// only in their "deck NAME" line key equal and have equal dual graphs,
// while changing one cell, the detonator or the grid changes the key.
func TestDeckKeyIsContent(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	const codes = "hafo"
	type spec struct {
		w, h  int
		rows  [][]byte
		det   string
		named string
	}
	text := func(sp spec) []byte {
		var b strings.Builder
		if sp.named != "" {
			fmt.Fprintf(&b, "deck %s\n", sp.named)
		}
		fmt.Fprintf(&b, "grid %d %d\n", sp.w, sp.h)
		if sp.det != "" {
			fmt.Fprintf(&b, "detonator %s\n", sp.det)
		}
		b.WriteString("cells\n")
		for _, r := range sp.rows {
			b.Write(r)
			b.WriteByte('\n')
		}
		return []byte(b.String())
	}
	parse := func(sp spec) *mesh.Deck {
		d, err := mesh.ParseDeck(text(sp))
		if err != nil {
			t.Fatalf("%v\n%s", err, text(sp))
		}
		return d
	}
	clone := func(sp spec) spec {
		sp.rows = slices.Clone(sp.rows)
		for i := range sp.rows {
			sp.rows[i] = slices.Clone(sp.rows[i])
		}
		return sp
	}
	for trial := 0; trial < 50; trial++ {
		sp := spec{w: 1 + rng.IntN(9), h: 1 + rng.IntN(9), named: "alpha"}
		for y := 0; y < sp.h; y++ {
			row := make([]byte, sp.w)
			for x := range row {
				row[x] = codes[rng.IntN(len(codes))]
			}
			sp.rows = append(sp.rows, row)
		}
		if rng.IntN(2) == 0 {
			sp.det = fmt.Sprintf("%g %g", rng.Float64(), rng.Float64())
		}
		base := parse(sp)

		for _, name := range []string{"beta", ""} {
			other := sp
			other.named = name
			d := parse(other)
			if d.Name == base.Name || d.CacheKey() != base.CacheKey() {
				t.Fatalf("trial %d: renaming %q to %q: keys %s vs %s", trial, base.Name, d.Name, base.CacheKey(), d.CacheKey())
			}
			g, h := partition.FromMesh(base.Mesh), partition.FromMesh(d.Mesh)
			if !slices.Equal(g.Xadj, h.Xadj) || !slices.Equal(g.Adjncy, h.Adjncy) ||
				!slices.Equal(g.AdjWgt, h.AdjWgt) || !slices.Equal(g.VWgt, h.VWgt) ||
				!slices.Equal(g.CoordX, h.CoordX) || !slices.Equal(g.CoordY, h.CoordY) {
				t.Fatalf("trial %d: decks of one content have different graphs", trial)
			}
		}

		cell := clone(sp)
		x, y := rng.IntN(sp.w), rng.IntN(sp.h)
		cell.rows[y][x] = codes[(strings.IndexByte(codes, cell.rows[y][x])+1+rng.IntN(3))%len(codes)]
		det := sp
		det.det = fmt.Sprintf("%g %g", 2+rng.Float64(), rng.Float64())
		grid := clone(sp)
		grid.w++
		for i := range grid.rows {
			grid.rows[i] = append(grid.rows[i], 'h')
		}
		for what, changed := range map[string]spec{"one cell": cell, "the detonator": det, "the grid": grid} {
			if parse(changed).CacheKey() == base.CacheKey() {
				t.Fatalf("trial %d: changing %s kept the key", trial, what)
			}
		}
	}
}
