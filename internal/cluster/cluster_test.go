package cluster

import (
	"math"
	"testing"

	"krak/internal/compute"
	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/partition"
	"krak/internal/phases"
)

func summarize(t testing.TB, w, h, p int) *mesh.PartitionSummary {
	t.Helper()
	d, err := mesh.BuildLayeredDeck(w, h)
	if err != nil {
		t.Fatal(err)
	}
	g := partition.FromMesh(d.Mesh)
	part, err := partition.NewMultilevel(1).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := mesh.Summarize(d.Mesh, part, p)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func baseConfig() Config {
	return Config{Net: netmodel.QsNetI(), Costs: compute.ES45().WithoutNoise()}
}

func TestSimulateValidation(t *testing.T) {
	sum := summarize(t, 16, 8, 4)
	if _, err := Simulate(sum, Config{}); err == nil {
		t.Fatal("missing net/costs accepted")
	}
	if _, err := Simulate(nil, baseConfig()); err == nil {
		t.Fatal("nil summary accepted")
	}
}

// The receive drain folds early arrivals without sorting, which is exact
// only while the CPU clock never runs backwards: negative or NaN
// overheads are rejected.
func TestSimulateRejectsBadOverheads(t *testing.T) {
	sum := summarize(t, 16, 8, 4)
	for _, o := range []struct{ send, recv float64 }{
		{-1e-6, 0}, {0, -1e-6}, {math.NaN(), 0}, {0, math.NaN()},
	} {
		cfg := baseConfig()
		cfg.SendOverhead, cfg.RecvOverhead = o.send, o.recv
		if _, err := Simulate(sum, cfg); err == nil {
			t.Errorf("overheads %g/%g accepted", o.send, o.recv)
		}
	}
}

func TestSimulateSingleProcessor(t *testing.T) {
	d, err := mesh.BuildLayeredDeck(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int, d.Mesh.NumCells())
	sum, err := mesh.Summarize(d.Mesh, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	r, err := Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// On one PE there is no communication at all.
	if r.CollectiveTime != 0 {
		t.Fatalf("collective time on 1 PE = %v", r.CollectiveTime)
	}
	var want float64
	for ph := 1; ph <= phases.Count; ph++ {
		want += cfg.Costs.PhaseTime(ph, sum.CellsByMaterial[0])
	}
	if math.Abs(r.IterationTime-want) > 1e-12 {
		t.Fatalf("iteration = %v, want pure compute %v", r.IterationTime, want)
	}
	for ph := 0; ph < phases.Count; ph++ {
		if r.CommTimes[ph] != 0 {
			t.Fatalf("phase %d comm time on 1 PE = %v", ph+1, r.CommTimes[ph])
		}
	}
}

func TestSimulateDeterminism(t *testing.T) {
	sum := summarize(t, 32, 16, 8)
	cfg := Config{Net: netmodel.QsNetI(), Costs: compute.ES45()}
	a, err := Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.IterationTime != b.IterationTime {
		t.Fatal("simulation not deterministic")
	}
	// A different iteration index gives a different (noisy) result.
	cfg.Iteration = 1
	c, err := Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.IterationTime == a.IterationTime {
		t.Fatal("noise did not vary across iterations")
	}
}

func TestSimulatePhaseAccounting(t *testing.T) {
	sum := summarize(t, 32, 16, 8)
	cfg := baseConfig()
	r, err := Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for ph := 0; ph < phases.Count; ph++ {
		if r.PhaseTimes[ph] <= 0 {
			t.Fatalf("phase %d time = %v", ph+1, r.PhaseTimes[ph])
		}
		if r.CommTimes[ph] < 0 {
			t.Fatalf("phase %d comm time negative: %v", ph+1, r.CommTimes[ph])
		}
		if len(r.ComputeTimes[ph]) != 8 {
			t.Fatalf("phase %d compute times for %d PEs", ph+1, len(r.ComputeTimes[ph]))
		}
		total += r.PhaseTimes[ph]
	}
	if math.Abs(total-r.IterationTime) > 1e-12 {
		t.Fatalf("phase times sum %v != iteration %v", total, r.IterationTime)
	}
	if r.CollectiveTime <= 0 {
		t.Fatal("no collective time on 8 PEs")
	}
	tc := make([]float64, r.P)
	for ph := range r.ComputeTimes {
		for pe, v := range r.ComputeTimes[ph] {
			tc[pe] += v
		}
	}
	if len(tc) != 8 {
		t.Fatalf("total compute for %d PEs", len(tc))
	}
	for pe, v := range tc {
		if v <= 0 {
			t.Fatalf("PE %d total compute = %v", pe, v)
		}
	}
}

func TestCommOnlyInCommPhases(t *testing.T) {
	sum := summarize(t, 32, 16, 4)
	cfg := baseConfig()
	cfg.Exact = true
	r, err := Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ph := range phases.Table1() {
		collectives := float64(0)
		for _, b := range ph.BcastBytes {
			collectives += cfg.Net.Bcast(4, b)
		}
		for _, b := range ph.GatherBytes {
			collectives += cfg.Net.Gather(4, b)
		}
		for _, b := range ph.AllreduceBytes {
			collectives += cfg.Net.Allreduce(4, b)
		}
		if !ph.HasPointToPoint() {
			// Compute-only phases: comm share is exactly the collectives.
			if math.Abs(r.CommTimes[i]-collectives) > 1e-9 {
				t.Errorf("phase %d comm = %v, want collectives only %v", ph.Number, r.CommTimes[i], collectives)
			}
		} else if r.CommTimes[i] <= collectives {
			t.Errorf("phase %d should have p2p comm beyond collectives", ph.Number)
		}
	}
}

func TestSerializeSendsSlower(t *testing.T) {
	sum := summarize(t, 64, 32, 16)
	over := baseConfig()
	ser := baseConfig()
	ser.SerializeSends = true
	a, err := Simulate(sum, over)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(sum, ser)
	if err != nil {
		t.Fatal(err)
	}
	if b.IterationTime <= a.IterationTime {
		t.Fatalf("serialized sends (%v) not slower than overlapped (%v)",
			b.IterationTime, a.IterationTime)
	}
}

func TestStrongScalingShape(t *testing.T) {
	// Iteration time must drop with processor count in the compute-bound
	// regime (medium-ish deck, small P).
	cfg := baseConfig()
	prev := math.Inf(1)
	for _, p := range []int{2, 4, 8, 16} {
		sum := summarize(t, 160, 80, p)
		r, err := Simulate(sum, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.IterationTime >= prev {
			t.Fatalf("iteration time not decreasing at P=%d: %v >= %v", p, r.IterationTime, prev)
		}
		prev = r.IterationTime
	}
}

func TestMaterialDependentPhaseSpread(t *testing.T) {
	// In a material-dependent phase, single-material PEs of different
	// materials must show different compute times; in a material-
	// independent phase they must not (equal cell counts).
	cfg := baseConfig()
	var heOnly, alOnly [mesh.NumMaterials]int
	heOnly[mesh.HEGas] = 1000
	alOnly[mesh.AluminumOuter] = 1000
	he2 := cfg.Costs.PhaseTime(2, heOnly)
	al2 := cfg.Costs.PhaseTime(2, alOnly)
	if he2 <= al2 {
		t.Fatalf("phase 2 HE gas (%v) should exceed aluminum (%v)", he2, al2)
	}
	he3 := cfg.Costs.PhaseTime(3, heOnly)
	al3 := cfg.Costs.PhaseTime(3, alOnly)
	if math.Abs(he3-al3) > 1e-15 {
		t.Fatalf("phase 3 should be material independent: %v vs %v", he3, al3)
	}
}

func TestSimulateIterations(t *testing.T) {
	sum := summarize(t, 32, 16, 4)
	cfg := Config{Net: netmodel.QsNetI(), Costs: compute.ES45()}
	results, mean, err := SimulateIterations(sum, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	var s float64
	for _, r := range results {
		s += r.IterationTime
	}
	if math.Abs(mean-s/5) > 1e-15 {
		t.Fatal("mean mismatch")
	}
	if _, _, err := SimulateIterations(sum, cfg, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestFasterNetworkFasterIteration(t *testing.T) {
	sum := summarize(t, 64, 32, 32)
	slow := Config{Net: netmodel.GigE(), Costs: compute.ES45().WithoutNoise()}
	fast := Config{Net: netmodel.Infiniband(), Costs: compute.ES45().WithoutNoise()}
	a, err := Simulate(sum, slow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(sum, fast)
	if err != nil {
		t.Fatal(err)
	}
	if b.IterationTime >= a.IterationTime {
		t.Fatalf("InfiniBand (%v) not faster than GigE (%v)", b.IterationTime, a.IterationTime)
	}
}
