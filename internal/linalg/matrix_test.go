package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("fresh matrix not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 2) did not panic")
		}
	}()
	NewMatrix(0, 2)
}

func TestNewMatrixFromRagged(t *testing.T) {
	_, err := NewMatrixFrom([][]float64{{1, 2}, {3}})
	if err == nil {
		t.Fatal("ragged literal accepted")
	}
	_, err = NewMatrixFrom(nil)
	if err == nil {
		t.Fatal("empty literal accepted")
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if got := m.At(0, 1); got != 7.5 {
		t.Fatalf("At(0,1) = %v, want 7.5", got)
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := a.MulVec([]float64{1, 2}); err == nil {
		t.Fatal("MulVec dimension mismatch not reported")
	}
}

func TestMulVecKnown(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	v, err := a.MulVec([]float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 17 || v[1] != 39 {
		t.Fatalf("MulVec = %v, want [17 39]", v)
	}
}

func TestTranspose(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := a.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestRowColClone(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	cl := a.Clone()
	cl.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestDotAndNorm(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
	// Norm2 must not overflow for large entries.
	if got := Norm2([]float64{1e308, 1e308}); math.IsInf(got, 0) {
		t.Fatal("Norm2 overflowed")
	}
}

// Property: y·(A x) == (Aᵀ y)·x for random A, x, y — the transpose is
// the adjoint of the product the solver tests multiply back with.
func TestTransposeProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(5), 1+rng.Intn(5)
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		x, y := make([]float64, n), make([]float64, m)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		aty, err := a.Transpose().MulVec(y)
		if err != nil {
			return false
		}
		var left, right float64
		for i := range y {
			left += y[i] * ax[i]
		}
		for j := range x {
			right += aty[j] * x[j]
		}
		return almostEqual(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
