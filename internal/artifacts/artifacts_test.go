package artifacts

import (
	"math"
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
