package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.A, 1, 1e-12) || !almostEqual(fit.B, 2, 1e-12) {
		t.Fatalf("fit = %+v, want A=1 B=2", fit)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 100
		xs = append(xs, x)
		ys = append(ys, 4+0.5*x+rng.NormFloat64()*0.01)
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.A-4) > 0.05 || math.Abs(fit.B-0.5) > 0.01 {
		t.Fatalf("noisy fit = %+v, want approx A=4 B=0.5", fit)
	}
}

func mustPiecewise(t *testing.T, xs, ys []float64) *Piecewise {
	t.Helper()
	p, err := NewPiecewise(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPiecewiseSinglePoint(t *testing.T) {
	p := mustPiecewise(t, []float64{5}, []float64{42})
	for _, x := range []float64{-10, 0, 5, 100} {
		if got := p.Eval(x); got != 42 {
			t.Fatalf("Eval(%v) = %v, want constant 42", x, got)
		}
	}
}

func TestPiecewiseInterpolation(t *testing.T) {
	p := mustPiecewise(t, []float64{0, 10, 20}, []float64{0, 100, 0})
	cases := []struct{ x, want float64 }{
		{0, 0}, {5, 50}, {10, 100}, {15, 50}, {20, 0},
	}
	for _, c := range cases {
		if got := p.Eval(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPiecewiseExtrapolation(t *testing.T) {
	p := mustPiecewise(t, []float64{0, 1}, []float64{0, 2})
	if got := p.Eval(2); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("right extrapolation = %v, want 4", got)
	}
	if got := p.Eval(-1); !almostEqual(got, -2, 1e-12) {
		t.Fatalf("left extrapolation = %v, want -2", got)
	}
}

func TestPiecewiseUnsortedInput(t *testing.T) {
	p, err := NewPiecewise([]float64{10, 0, 5}, []float64{1, 0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(2.5); !almostEqual(got, 0.25, 1e-12) {
		t.Fatalf("Eval(2.5) = %v, want 0.25", got)
	}
}

func TestPiecewiseDuplicateX(t *testing.T) {
	if _, err := NewPiecewise([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("duplicate x accepted")
	}
}

func TestPiecewiseEmpty(t *testing.T) {
	if _, err := NewPiecewise(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestPiecewiseEvalLog(t *testing.T) {
	// In log space the midpoint of [10, 1000] is 100.
	p := mustPiecewise(t, []float64{10, 1000}, []float64{0, 1})
	if got := p.EvalLog(100); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("EvalLog(100) = %v, want 0.5", got)
	}
	// Non-positive x falls back to the first knot value.
	if got := p.EvalLog(0); got != 0 {
		t.Fatalf("EvalLog(0) = %v, want 0", got)
	}
}

// Property: Eval at any knot returns the knot's y exactly; Eval between two
// adjacent knots is bounded by their y values.
func TestPiecewiseBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		xs := make([]float64, n)
		ys := make([]float64, n)
		x := rng.Float64()
		for i := 0; i < n; i++ {
			x += 0.1 + rng.Float64()
			xs[i] = x
			ys[i] = rng.NormFloat64() * 10
		}
		p, err := NewPiecewise(xs, ys)
		if err != nil {
			return false
		}
		for i := range xs {
			if !almostEqual(p.Eval(xs[i]), ys[i], 1e-9) {
				return false
			}
		}
		for i := 1; i < n; i++ {
			mid := (xs[i-1] + xs[i]) / 2
			v := p.Eval(mid)
			lo := math.Min(ys[i-1], ys[i]) - 1e-9
			hi := math.Max(ys[i-1], ys[i]) + 1e-9
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
