package calib

import (
	"fmt"
	"math"

	"krak/internal/linalg"
)

// Features are the baseline-model descriptors of one observation, computed
// by evaluating the analytic model at unit networks: Compute is the
// baseline-predicted computation seconds (reference cost tables), Messages
// the modeled message count (point-to-point messages plus collective tree
// stages), and Bytes the modeled payload bytes on the wire.
type Features struct {
	Compute  float64 `json:"compute_s"`
	Messages float64 `json:"messages"`
	Bytes    float64 `json:"bytes"`
}

// Params are the fitted machine parameters of the linear timing model
//
//	T = ComputeScale*Compute + LatencySec*Messages + ByteSec*Bytes + FixedSec
//
// ComputeScale is the compute-rate multiplier relative to the baseline
// cost tables (1 = the baseline machine, 2 = half as fast), LatencySec the
// effective per-message latency, ByteSec the effective seconds per byte
// (1/bandwidth), and FixedSec a fixed per-iteration overhead.
type Params struct {
	ComputeScale float64 `json:"compute_scale"`
	LatencySec   float64 `json:"latency_s"`
	ByteSec      float64 `json:"byte_s"`
	FixedSec     float64 `json:"fixed_s"`
}

// Predict evaluates the linear timing model at one observation's features.
func (p Params) Predict(f Features) float64 {
	return p.ComputeScale*f.Compute + p.LatencySec*f.Messages + p.ByteSec*f.Bytes + p.FixedSec
}

// The model terms, in design-matrix column order.
const (
	termCompute  = "compute"
	termMessages = "messages"
	termBytes    = "bytes"
	termFixed    = "fixed"
)

// termSubsets are the fall-back ladder of term combinations Fit tries, in
// order: the full model first, then progressively coarser models for
// datasets whose observations cannot resolve every parameter (too few
// points, or features that never vary independently).
var termSubsets = [][]string{
	{termCompute, termMessages, termBytes, termFixed},
	{termCompute, termMessages, termBytes},
	{termCompute, termMessages},
	{termCompute, termFixed},
	{termCompute},
}

// column returns the design-matrix entry of one term for one observation.
func column(term string, f Features) float64 {
	switch term {
	case termCompute:
		return f.Compute
	case termMessages:
		return f.Messages
	case termBytes:
		return f.Bytes
	case termFixed:
		return 1
	}
	panic("calib: unknown term " + term)
}

// FitResult reports a least-squares calibration: the fitted parameters,
// their standard errors (zero for terms the fall-back ladder dropped or
// when the fit leaves no degrees of freedom), and the terms actually
// fitted. The linear form's FormFit carries the fit's quality.
type FitResult struct {
	Params Params
	StdErr Params
	Terms  []string
}

// Fit solves the linear timing model by Householder-QR least squares over
// the aligned times and features. When the full four-term system is rank
// deficient it retries progressively coarser term subsets (see Params for
// the model); ErrDegenerate is returned when even the compute-only model
// cannot be resolved.
func Fit(times []float64, feats []Features) (*FitResult, error) {
	if len(times) != len(feats) {
		return nil, fmt.Errorf("calib: %d times vs %d feature rows", len(times), len(feats))
	}
	n := len(times)
	if n == 0 {
		return nil, ErrDegenerate
	}
	for _, terms := range termSubsets {
		k := len(terms)
		if n < k {
			continue
		}
		a := linalg.NewMatrix(n, k)
		for i, f := range feats {
			for j, term := range terms {
				a.Set(i, j, column(term, f))
			}
		}
		x, err := linalg.LeastSquares(a, times)
		if err == linalg.ErrSingular {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("calib: least squares: %w", err)
		}
		return assemble(terms, x, a, times, feats), nil
	}
	return nil, ErrDegenerate
}

// assemble maps a term-subset solution back onto Params and computes the
// per-parameter standard errors.
func assemble(terms []string, x []float64, a *linalg.Matrix, times []float64, feats []Features) *FitResult {
	fr := &FitResult{Terms: terms}
	setParam(&fr.Params, terms, x)

	// Per-parameter standard errors: sqrt(sigma² * (X'X)⁻¹_jj) with
	// sigma² = SSR/(n-k). Left at zero when there are no spare degrees of
	// freedom or X'X is numerically singular.
	n, k := len(times), len(terms)
	if n > k {
		var ssr float64
		for i, f := range feats {
			r := times[i] - fr.Params.Predict(f)
			ssr += r * r
		}
		sigma2 := ssr / float64(n-k)
		xtx := linalg.NewMatrix(k, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				var s float64
				for r := 0; r < n; r++ {
					s += a.At(r, i) * a.At(r, j)
				}
				xtx.Set(i, j, s)
			}
		}
		se := make([]float64, k)
		ok := true
		for j := 0; j < k; j++ {
			e := make([]float64, k)
			e[j] = 1
			z, err := linalg.SolveLU(xtx, e)
			if err != nil || z[j] < 0 {
				ok = false
				break
			}
			se[j] = math.Sqrt(sigma2 * z[j])
		}
		if ok {
			setParam(&fr.StdErr, terms, se)
		}
	}
	return fr
}

// setParam scatters a term-subset vector into the named Params fields.
func setParam(p *Params, terms []string, x []float64) {
	for j, term := range terms {
		switch term {
		case termCompute:
			p.ComputeScale = x[j]
		case termMessages:
			p.LatencySec = x[j]
		case termBytes:
			p.ByteSec = x[j]
		case termFixed:
			p.FixedSec = x[j]
		}
	}
}
