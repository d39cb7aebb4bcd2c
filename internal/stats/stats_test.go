package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanMaxMinSum(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Mean(xs); got != 2.8 {
		t.Fatalf("Mean = %v, want 2.8", got)
	}
	if got := Max(xs); got != 5 {
		t.Fatalf("Max = %v, want 5", got)
	}
	if got := Min(xs); got != 1 {
		t.Fatalf("Min = %v, want 1", got)
	}
}

func TestEmptySlices(t *testing.T) {
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 {
		t.Fatal("empty-slice stats should be 0")
	}
}

func TestRelErrPaperConvention(t *testing.T) {
	// Table 6 row: Meas 61, Pred 66 -> -8.0% (paper convention).
	got := RelErr(61, 66)
	if math.Abs(got-(-5.0/61.0)) > 1e-12 {
		t.Fatalf("RelErr(61,66) = %v", got)
	}
	if FormatPct(got) != "-8.2%" {
		t.Fatalf("FormatPct = %q", FormatPct(got))
	}
	if RelErr(0, 0) != 0 {
		t.Fatal("RelErr(0,0) should be 0")
	}
	if !math.IsInf(RelErr(0, 1), 1) {
		t.Fatal("RelErr(0,1) should be +Inf")
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewSplitMix64(43)
	same := 0
	a = NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/100", same)
	}
}

func TestSplitMix64Range(t *testing.T) {
	g := NewSplitMix64(7)
	for i := 0; i < 10000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	g = NewSplitMix64(8)
	for i := 0; i < 10000; i++ {
		s := g.Sym()
		if s < -1 || s >= 1 {
			t.Fatalf("Sym out of range: %v", s)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(1, 2, 3)
	b := Derive(1, 2, 4)
	c := Derive(1, 2, 3)
	if a.Next() != c.Next() {
		t.Fatal("Derive not deterministic")
	}
	if a.Next() == b.Next() {
		t.Fatal("distinct keys produced identical streams (suspicious)")
	}
}

func TestSplitMix64MeanProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewSplitMix64(seed)
		var s float64
		const n = 4096
		for i := 0; i < n; i++ {
			s += g.Float64()
		}
		mean := s / n
		return mean > 0.45 && mean < 0.55
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxGEMeanGEMinProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			// Skip NaN/Inf and magnitudes whose sum could overflow.
			if math.IsNaN(x) || math.Abs(x) > 1e300 {
				return true
			}
		}
		if len(xs) == 0 {
			return true
		}
		return Max(xs) >= Mean(xs) && Mean(xs) >= Min(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
