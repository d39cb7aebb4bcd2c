package compute

import (
	"math"
	"testing"
	"testing/quick"

	"krak/internal/linalg"
	"krak/internal/mesh"
	"krak/internal/phases"
)

func TestPhaseTimeComposition(t *testing.T) {
	tt := ES45()
	var counts [mesh.NumMaterials]int
	counts[mesh.HEGas] = 1000
	c := tt.Phases[0] // phase 1
	want := c.Fixed + c.PerCell[mesh.HEGas]*1000 + c.PerSqrt[mesh.HEGas]*math.Sqrt(1000)
	if got := tt.PhaseTime(1, counts); math.Abs(got-want) > 1e-15 {
		t.Fatalf("PhaseTime = %v, want %v", got, want)
	}
}

func TestPhaseTimeEmptySubgrid(t *testing.T) {
	tt := ES45()
	var empty [mesh.NumMaterials]int
	for ph := 1; ph <= phases.Count; ph++ {
		if got := tt.PhaseTime(ph, empty); got != 0 {
			t.Fatalf("phase %d on empty subgrid = %v, want 0", ph, got)
		}
	}
}

func TestMaterialDependenceMatchesPhaseTable(t *testing.T) {
	tt := ES45()
	for ph := 1; ph <= phases.Count; ph++ {
		p := phases.All()[ph-1]
		c := tt.Phases[ph-1]
		varies := false
		for m := 1; m < mesh.NumMaterials; m++ {
			if c.PerCell[m] != c.PerCell[0] {
				varies = true
			}
		}
		if varies != p.MaterialDependent {
			t.Errorf("phase %d: truth table material dependence %v, phase table says %v",
				ph, varies, p.MaterialDependent)
		}
	}
}

func TestKneeShape(t *testing.T) {
	// Figure 3: per-cell cost decreases (weakly) with subgrid size and
	// flattens at large n.
	tt := ES45()
	for _, ph := range []int{1, 2, 7} {
		prev := math.Inf(1)
		for _, n := range []int{1, 10, 100, 1000, 10000, 100000} {
			pc := tt.PerCellCost(ph, mesh.HEGas, n)
			if pc > prev*1.0000001 {
				t.Fatalf("phase %d per-cell cost not decreasing at n=%d: %v > %v", ph, n, pc, prev)
			}
			prev = pc
		}
		// Large-n cost approaches the linear coefficient.
		asym := tt.PerCellCost(ph, mesh.HEGas, 1_000_000)
		lin := tt.Phases[ph-1].PerCell[mesh.HEGas]
		if asym > lin*1.05 {
			t.Fatalf("phase %d per-cell cost at 1M cells = %v, want within 5%% of %v", ph, asym, lin)
		}
		// Small-n cost is far above the asymptote (the knee exists).
		if tt.PerCellCost(ph, mesh.HEGas, 1) < 100*lin {
			t.Fatalf("phase %d has no knee: cost(1) = %v", ph, tt.PerCellCost(ph, mesh.HEGas, 1))
		}
	}
}

func TestPerCellCostPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PerCellCost(0) did not panic")
		}
	}()
	ES45().PerCellCost(1, mesh.HEGas, 0)
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	tt := ES45()
	var counts [mesh.NumMaterials]int
	counts[mesh.Foam] = 500
	a := tt.NoisyPhaseTime(3, counts, 7, 2)
	b := tt.NoisyPhaseTime(3, counts, 7, 2)
	if a != b {
		t.Fatal("noise not deterministic")
	}
	base := tt.PhaseTime(3, counts)
	for pe := 0; pe < 50; pe++ {
		v := tt.NoisyPhaseTime(3, counts, pe, 0)
		if math.Abs(v-base) > tt.NoiseFrac*base {
			t.Fatalf("noise exceeds %v%%: %v vs %v", tt.NoiseFrac*100, v, base)
		}
	}
	// Distinct PEs see distinct noise.
	if tt.NoisyPhaseTime(3, counts, 0, 0) == tt.NoisyPhaseTime(3, counts, 1, 0) {
		t.Fatal("noise identical across PEs (suspicious)")
	}
	if ES45().WithoutNoise().NoisyPhaseTime(3, counts, 5, 5) != base {
		t.Fatal("WithoutNoise still noisy")
	}
}

func TestIterationTimeMagnitude(t *testing.T) {
	// A medium-deck 128-PE subgrid (1600 cells, heterogeneous-ish) should
	// take tens of milliseconds per iteration — the Table 5/6 regime.
	tt := ES45()
	var counts [mesh.NumMaterials]int
	counts[mesh.HEGas] = 626
	counts[mesh.AluminumInner] = 275
	counts[mesh.Foam] = 325
	counts[mesh.AluminumOuter] = 374
	var it float64
	for ph := 1; ph <= phases.Count; ph++ {
		it += tt.PhaseTime(ph, counts)
	}
	if it < 0.030 || it > 0.120 {
		t.Fatalf("iteration time = %v s, want tens of ms", it)
	}
}

func TestWithoutKnee(t *testing.T) {
	tt := ES45().WithoutKnee()
	// Per-cell cost becomes independent of n.
	a := tt.PerCellCost(2, mesh.Foam, 1)
	b := tt.PerCellCost(2, mesh.Foam, 100000)
	if math.Abs(a-b) > 1e-18 {
		t.Fatalf("no-knee table still has a knee: %v vs %v", a, b)
	}
}

func TestCalibratedPhaseTime(t *testing.T) {
	var cal Calibrated
	// Constant 2 us/cell for HE gas in phase 1.
	curve, err := linalg.NewPiecewise([]float64{1, 1e6}, []float64{2e-6, 2e-6})
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.SetCurve(1, mesh.HEGas, curve); err != nil {
		t.Fatal(err)
	}
	var counts [mesh.NumMaterials]int
	counts[mesh.HEGas] = 1000
	if got, want := cal.PhaseTime(1, counts), 2e-3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("PhaseTime = %v, want %v", got, want)
	}
	// Missing curves contribute zero.
	counts[mesh.Foam] = 500
	if got := cal.PhaseTime(1, counts); math.Abs(got-2e-3) > 1e-12 {
		t.Fatalf("missing curve contributed: %v", got)
	}
	// Phase bounds.
	if err := cal.SetCurve(0, mesh.HEGas, curve); err == nil {
		t.Fatal("phase 0 accepted")
	}
	if err := cal.SetCurve(16, mesh.HEGas, curve); err == nil {
		t.Fatal("phase 16 accepted")
	}
}

func TestCalibratedNegativeClamped(t *testing.T) {
	var cal Calibrated
	curve, err := linalg.NewPiecewise([]float64{1, 10}, []float64{-1e-6, -1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.SetCurve(1, mesh.HEGas, curve); err != nil {
		t.Fatal(err)
	}
	if got := cal.PerCell(1, mesh.HEGas, 5); got != 0 {
		t.Fatalf("negative per-cell cost not clamped: %v", got)
	}
	if got := cal.PerCell(1, mesh.HEGas, 0); got != 0 {
		t.Fatalf("n=0 should cost 0, got %v", got)
	}
}

// Property: PhaseTime is monotone in every material count.
func TestPhaseTimeMonotoneProperty(t *testing.T) {
	tt := ES45()
	f := func(ph8 uint8, m8 uint8, nRaw uint16, extra uint8) bool {
		ph := int(ph8)%phases.Count + 1
		m := int(m8) % mesh.NumMaterials
		var a, b [mesh.NumMaterials]int
		a[m] = int(nRaw)
		b[m] = int(nRaw) + int(extra) + 1
		return tt.PhaseTime(ph, b) >= tt.PhaseTime(ph, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: truth PhaseTime equals the sum of single-material times minus
// the duplicated fixed overheads (additivity of the material terms).
func TestPhaseTimeAdditiveProperty(t *testing.T) {
	tt := ES45()
	f := func(ph8 uint8, n0, n1, n2, n3 uint8) bool {
		ph := int(ph8)%phases.Count + 1
		counts := [mesh.NumMaterials]int{int(n0), int(n1), int(n2), int(n3)}
		var sum float64
		nonEmpty := 0
		for m, n := range counts {
			if n > 0 {
				sum += tt.SingleMaterialTime(ph, mesh.Material(m), n)
				nonEmpty++
			}
		}
		if nonEmpty == 0 {
			return tt.PhaseTime(ph, counts) == 0
		}
		want := sum - float64(nonEmpty-1)*tt.Phases[ph-1].Fixed
		got := tt.PhaseTime(ph, counts)
		return math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
