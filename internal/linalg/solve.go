package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu  *Matrix
	piv []int
}

// FactorLU computes the LU factorization of the square matrix a with partial
// (row) pivoting. The input matrix is not modified.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: LU requires a square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	n := a.Rows()
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find the pivot row.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if ab := math.Abs(lu.At(i, k)); ab > maxAbs {
				maxAbs = ab
				p = i
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				tmp := lu.At(p, j)
				lu.Set(p, j, lu.At(k, j))
				lu.Set(k, j, tmp)
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		// Eliminate below the pivot.
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivVal
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve solves A*x = b for x using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d does not match matrix order %d", len(b), n)
	}
	x := make([]float64, n)
	// Apply the permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.At(i, j) * x[j]
		}
		d := f.lu.At(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = (x[i] - s) / d
	}
	return x, nil
}

// SolveLU is a convenience wrapper that factors a and solves a*x = b.
func SolveLU(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// QR holds a Householder QR factorization A = Q*R of an m-by-n matrix with
// m >= n.
type QR struct {
	qr    *Matrix   // Upper triangle holds R; below-diagonal + vDiag hold the Householder vectors.
	vDiag []float64 // Leading coefficients of the Householder vectors.
}

// FactorQR computes the Householder QR factorization of a (m >= n required).
// The input matrix is not modified.
func FactorQR(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	qr := a.Clone()
	vDiag := make([]float64, n)
	for k := 0; k < n; k++ {
		// Norm of the k-th column below (and including) the diagonal.
		col := make([]float64, m-k)
		for i := k; i < m; i++ {
			col[i-k] = qr.At(i, k)
		}
		alpha := Norm2(col)
		if alpha == 0 {
			return nil, ErrSingular
		}
		if qr.At(k, k) > 0 {
			alpha = -alpha
		}
		// v = x - alpha*e1. v[0] is kept in vDiag; the below-diagonal
		// column entries already hold the rest of v in place.
		vDiag[k] = qr.At(k, k) - alpha
		// beta = 2 / (v'v)
		vtv := vDiag[k] * vDiag[k]
		for i := k + 1; i < m; i++ {
			vtv += qr.At(i, k) * qr.At(i, k)
		}
		if vtv == 0 {
			return nil, ErrSingular
		}
		beta := 2 / vtv
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			s := vDiag[k] * qr.At(k, j)
			for i := k + 1; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s *= beta
			qr.Add(k, j, -s*vDiag[k])
			for i := k + 1; i < m; i++ {
				qr.Add(i, j, -s*qr.At(i, k))
			}
		}
		qr.Set(k, k, alpha)
	}
	return &QR{qr: qr, vDiag: vDiag}, nil
}

// Solve returns the least-squares solution x minimizing ||A*x - b||2.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.Rows(), f.qr.Cols()
	if len(b) != m {
		return nil, fmt.Errorf("linalg: rhs length %d does not match row count %d", len(b), m)
	}
	y := make([]float64, m)
	copy(y, b)
	// Apply the Householder reflectors to b: y = Q' * b.
	for k := 0; k < n; k++ {
		vtv := f.vDiag[k] * f.vDiag[k]
		for i := k + 1; i < m; i++ {
			vtv += f.qr.At(i, k) * f.qr.At(i, k)
		}
		beta := 2 / vtv
		s := f.vDiag[k] * y[k]
		for i := k + 1; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s *= beta
		y[k] -= s * f.vDiag[k]
		for i := k + 1; i < m; i++ {
			y[i] -= s * f.qr.At(i, k)
		}
	}
	// Back substitution with R. A diagonal entry that is tiny relative to
	// the largest one signals (numerical) rank deficiency.
	var maxDiag float64
	for i := 0; i < n; i++ {
		if d := math.Abs(f.qr.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	tol := maxDiag * 1e-12 * float64(m)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		d := f.qr.At(i, i)
		if math.Abs(d) <= tol {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// LeastSquares returns the x minimizing ||A*x - b||2 via Householder QR.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
