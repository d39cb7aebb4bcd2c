package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveLUKnown(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveLU(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-10) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := FactorLU(a); err != ErrSingular {
		t.Fatalf("FactorLU(singular) err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorLU(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square LU accepted")
	}
}

func TestLUSolveRHSLengthMismatch(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{{1, 0}, {0, 1}})
	f, _ := FactorLU(a)
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// Property: for random well-conditioned systems, A * Solve(A, b) == b.
func TestLURoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance => well conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLU(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQRExactSystem(t *testing.T) {
	// Square system: least squares must reproduce the exact solution.
	a, _ := NewMatrixFrom([][]float64{
		{1, 1},
		{1, 2},
	})
	x, err := LeastSquares(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-10) || !almostEqual(x[1], 2, 1e-10) {
		t.Fatalf("x = %v, want [1 2]", x)
	}
}

func TestQROverdetermined(t *testing.T) {
	// y = 2 + 3x sampled with zero noise at 5 points.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 2, 1e-10) || !almostEqual(x[1], 3, 1e-10) {
		t.Fatalf("fit = %v, want [2 3]", x)
	}
}

func TestQRUnderdeterminedRejected(t *testing.T) {
	if _, err := FactorQR(NewMatrix(2, 3)); err == nil {
		t.Fatal("m < n accepted")
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: rank deficient.
	a, _ := NewMatrixFrom([][]float64{
		{1, 1},
		{2, 2},
		{3, 3},
	})
	_, err := LeastSquares(a, []float64{1, 2, 3})
	if err == nil {
		t.Fatal("rank-deficient system accepted")
	}
}

// Property: the least-squares residual is orthogonal to the column space.
func TestQRNormalEquationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(10)
		n := 1 + rng.Intn(3)
		if n > m {
			n = m
		}
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient random draw; skip
		}
		r, err := Residual(a, x, b)
		if err != nil {
			return false
		}
		// A' r must be ~0.
		atr, err := a.Transpose().MulVec(r)
		if err != nil {
			return false
		}
		for _, v := range atr {
			if math.Abs(v) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResidualLengthMismatch(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{{1, 0}, {0, 1}})
	if _, err := Residual(a, []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
