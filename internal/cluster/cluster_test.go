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

func newPlan(t testing.TB, sum *mesh.PartitionSummary) *Plan {
	t.Helper()
	pl, err := NewPlan(sum)
	if err != nil {
		t.Fatal(err)
	}
	return pl
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
	tc := make([]float64, sum.P)
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
	plan := newPlan(t, sum)
	results, mean, err := SimulateIterations(plan, cfg, 5)
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
	if _, _, err := SimulateIterations(plan, cfg, 0); err == nil {
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

// Each point-to-point pattern delivers every message exactly once: every
// arrival slot is filled by one message from a sender to the slot's
// owner, and each PE sends and receives exactly the bytes the phases
// package enumerates for its boundaries, so the bytes sent equal the
// bytes received. Runs are maximal: two runs of one pair in a row differ
// in payload.
func TestExchangePlansPairSendsWithReceives(t *testing.T) {
	sum := summarize(t, 64, 32, 16)
	pl := newPlan(t, sum)
	if len(pl.patterns) != 3 {
		t.Fatalf("built %d patterns, want the boundary exchange and two ghost updates", len(pl.patterns))
	}
	for k := range pl.patterns {
		pat := &pl.patterns[k]
		wantSent := make([]int, sum.P)
		wantRecv := make([]int, sum.P)
		for pe, nbs := range sum.NeighborsOf {
			for _, nb := range nbs {
				var msgs []phases.Message
				if pat.ghostBytes == 0 {
					msgs = phases.AppendBoundaryExchangeMessages(nil, sum.Boundary(pe, nb))
				} else {
					msgs = phases.AppendGhostUpdateMessages(nil, sum.Boundary(pe, nb), pe, pat.ghostBytes)
				}
				for _, m := range msgs {
					wantSent[pe] += m.Bytes
					wantRecv[nb] += m.Bytes
				}
			}
		}
		slots := int(pat.recvOff[sum.P])
		filled := make([]int, slots)
		slotBytes := make([]int, slots)
		sent := make([]int, sum.P)
		for pe, nbs := range sum.NeighborsOf {
			for i := pat.pairOff[pe]; i < pat.pairOff[pe+1]; i++ {
				nb := nbs[i-pat.pairOff[pe]]
				s := int(pat.base[i])
				runs := pat.runs[pat.runOff[i]:pat.runOff[i+1]]
				for j, rn := range runs {
					if rn.count <= 0 || (j > 0 && runs[j-1].bytes == rn.bytes) {
						t.Fatalf("pattern %d (ghost %d B), PE %d -> %d: run %d of %v is not maximal", k, pat.ghostBytes, pe, nb, j, runs)
					}
					for c := int32(0); c < rn.count; c++ {
						if s < int(pat.recvOff[nb]) || s >= int(pat.recvOff[nb+1]) {
							t.Fatalf("pattern %d (ghost %d B), PE %d -> %d: slot %d is not the receiver's", k, pat.ghostBytes, pe, nb, s)
						}
						filled[s]++
						slotBytes[s] = int(rn.bytes)
						s++
					}
					sent[pe] += int(rn.bytes * rn.count)
				}
			}
		}
		for s, n := range filled {
			if n != 1 {
				t.Fatalf("pattern %d (ghost %d B): slot %d filled %d times", k, pat.ghostBytes, s, n)
			}
		}
		for pe := 0; pe < sum.P; pe++ {
			recv := 0
			for s := pat.recvOff[pe]; s < pat.recvOff[pe+1]; s++ {
				recv += slotBytes[s]
			}
			if sent[pe] != wantSent[pe] || recv != wantRecv[pe] {
				t.Errorf("pattern %d (ghost %d B), PE %d: sent %d B, received %d B; want %d and %d",
					k, pat.ghostBytes, pe, sent[pe], recv, wantSent[pe], wantRecv[pe])
			}
		}
	}
}
