package calib

import (
	"fmt"
	"math"
	"slices"

	"krak/internal/linalg"
	"krak/internal/stats"
)

// The model zoo: candidate timing-model forms beyond the paper's linear
// fit, each solved by the same Householder-QR core. The Cray XE
// dense-linear-algebra study builds families of candidate regression
// models per kernel and selects by cross-validation; these are the
// krak equivalents, chosen so each maps back onto something the rest of
// the repository can execute:
//
//	linear     T = a*C + b*M + c*B + d            (the paper's model)
//	loglog     T = exp(a) * C^b * M^c * B^d       (power law)
//	interact   T = a*C + b*M + c*B + e*M*B + d    (latency-bandwidth coupling)
//	piecewise  lo/hi latency+bandwidth split at a message-size breakpoint
//	           (mirroring piecewise segment networks)
//
// C, M, B are the observation Features (baseline compute seconds,
// modeled messages, modeled bytes).

// The model form names, in registry (parsimony-tie-break) order.
const (
	FormLinear    = "linear"
	FormLogLog    = "loglog"
	FormInteract  = "interact"
	FormPiecewise = "piecewise"
)

// ModelForm is one candidate timing-model form: it fits aligned times
// and features into a FormFit by least squares.
type ModelForm interface {
	// Name is the registry name (FormLinear, ...).
	Name() string

	// Coeffs is the coefficient count — the parsimony rank model
	// selection breaks CV ties by.
	Coeffs() int

	// Describe is a one-line human description of the functional form.
	Describe() string

	// Fit solves the form over the aligned observations. Forms that the
	// dataset cannot support (too few points, non-positive values for a
	// log transform, no message traffic to split on) return an error; the
	// selection scoreboard records it and moves on.
	Fit(times []float64, feats []Features) (*FormFit, error)
}

// Forms returns the model zoo in stable registry order: ascending
// coefficient count, linear first — the order parsimony ties resolve in.
func Forms() []ModelForm {
	return []ModelForm{linearForm{}, loglogForm{}, interactForm{}, piecewiseForm{}}
}

// FormByName resolves a registry name ("linear", "loglog", "interact",
// "piecewise") to its ModelForm.
func FormByName(name string) (ModelForm, error) {
	for _, f := range Forms() {
		if f.Name() == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("calib: unknown model form %q", name)
}

// FormFit is one fitted model form — enough to reconstruct the
// predictor (Form + Coeffs + Breakpoint), so a fit survives a trip
// through JSON and a registry without refitting.
type FormFit struct {
	// Form is the registry name of the fitted form.
	Form string

	// Terms names the fitted coefficients in Coeffs order.
	Terms []string

	// Coeffs are the fitted coefficients, in the form's canonical order
	// (see each form's Describe).
	Coeffs []float64

	// StdErr holds the coefficients' standard errors, aligned with
	// Coeffs. Only the linear form reports them; nil for every other
	// form.
	StdErr []float64

	// Breakpoint is the piecewise form's message-size split in bytes per
	// message; zero for every other form.
	Breakpoint float64

	// R2 is the coefficient of determination over the fitted data.
	R2 float64

	// RMSE is the root-mean-square residual in seconds.
	RMSE float64

	// SigmaRel is the dof-corrected RMS of *relative* residuals
	// (residual over observed seconds) — the scale-free stderr band
	// drift detection compares fresh residuals against. Observation
	// times span orders of magnitude, so an absolute band would be set
	// entirely by the slowest points.
	SigmaRel float64

	// Residuals[i] is observed minus fitted seconds for observation i.
	Residuals []float64

	// N is the observation count.
	N int
}

// Predict evaluates the fitted form at one observation's features.
func (ff *FormFit) Predict(f Features) float64 {
	c := ff.Coeffs
	switch ff.Form {
	case FormLinear:
		p, _ := ff.LinearParams()
		return p.Predict(f)
	case FormLogLog:
		// Evaluated in the log domain: exp(c0)·C^c1·… multiplies an
		// overflowed factor by an underflowed one on extreme inputs
		// (Inf·0 = NaN), while exp of a finite sum saturates cleanly.
		return math.Exp(c[0] + c[1]*math.Log(f.Compute) + c[2]*math.Log(f.Messages) + c[3]*math.Log(f.Bytes))
	case FormInteract:
		return c[0]*f.Compute + c[1]*f.Messages + c[2]*f.Bytes + c[3]*f.Messages*f.Bytes + c[4]
	case FormPiecewise:
		lat, byteSec := c[1], c[2]
		if meanMessageSize(f) > ff.Breakpoint {
			lat, byteSec = c[3], c[4]
		}
		return c[0]*f.Compute + lat*f.Messages + byteSec*f.Bytes + c[5]
	}
	panic("calib: unknown form " + ff.Form)
}

// LinearParams maps the fit back onto linear machine parameters when the
// form has an exact linear interpretation (only FormLinear does); the
// second return reports whether the mapping is exact.
func (ff *FormFit) LinearParams() (Params, bool) {
	if ff.Form != FormLinear || len(ff.Coeffs) != 4 {
		return Params{}, false
	}
	return Params{
		ComputeScale: ff.Coeffs[0],
		LatencySec:   ff.Coeffs[1],
		ByteSec:      ff.Coeffs[2],
		FixedSec:     ff.Coeffs[3],
	}, true
}

// meanMessageSize is the piecewise split variable: modeled bytes per
// modeled message. Observations without message traffic land on the low
// segment, like a zero-byte message would in a segment network.
func meanMessageSize(f Features) float64 {
	if f.Messages <= 0 {
		return 0
	}
	return f.Bytes / f.Messages
}

// finish fills the quality block of a FormFit from its predictor.
func (ff *FormFit) finish(times []float64, feats []Features) {
	n, k := len(times), len(ff.Coeffs)
	ff.N = n
	ff.Residuals = make([]float64, n)
	var ssr float64
	for i, f := range feats {
		ff.Residuals[i] = times[i] - ff.Predict(f)
		ssr += ff.Residuals[i] * ff.Residuals[i]
	}
	ff.RMSE = math.Sqrt(ssr / float64(n))
	mean := stats.Mean(times)
	var sst, ssrRel float64
	relScored := 0
	for i, t := range times {
		sst += (t - mean) * (t - mean)
		if t != 0 {
			r := ff.Residuals[i] / t
			ssrRel += r * r
			relScored++
		}
	}
	switch {
	case sst > 0:
		ff.R2 = 1 - ssr/sst
	case ssr == 0:
		ff.R2 = 1
	}
	if relScored > k {
		ff.SigmaRel = math.Sqrt(ssrRel / float64(relScored-k))
	}
}

// solveDesign runs one Householder-QR least-squares solve over explicit
// design columns. Columns are equilibrated to unit norm before the
// solve: the zoo mixes columns of wildly different magnitudes (compute
// seconds ~0.1 against messages×bytes products ~1e11), and without
// scaling the QR rank test — relative to the largest column — would
// flag the small ones as degenerate.
func solveDesign(times []float64, feats []Features, cols []func(Features) float64) ([]float64, error) {
	n, k := len(times), len(cols)
	if n < k {
		return nil, ErrDegenerate
	}
	a := linalg.NewMatrix(n, k)
	for i, f := range feats {
		for j, col := range cols {
			a.Set(i, j, col(f))
		}
	}
	norms := make([]float64, k)
	for j := 0; j < k; j++ {
		var s float64
		for i := 0; i < n; i++ {
			s += a.At(i, j) * a.At(i, j)
		}
		norms[j] = math.Sqrt(s)
		if norms[j] == 0 {
			return nil, ErrDegenerate
		}
		for i := 0; i < n; i++ {
			a.Set(i, j, a.At(i, j)/norms[j])
		}
	}
	x, err := linalg.LeastSquares(a, times)
	if err == linalg.ErrSingular {
		return nil, ErrDegenerate
	}
	if err != nil {
		return nil, fmt.Errorf("calib: least squares: %w", err)
	}
	for j := range x {
		x[j] /= norms[j]
	}
	return x, nil
}

// linearForm wraps the paper's linear model (and its rank-deficiency
// fall-back ladder) as a ModelForm.
type linearForm struct{}

func (linearForm) Name() string { return FormLinear }
func (linearForm) Coeffs() int  { return 4 }
func (linearForm) Describe() string {
	return "T = scale*C + lat*M + perbyte*B + fixed (the paper's model)"
}

func (linearForm) Fit(times []float64, feats []Features) (*FormFit, error) {
	fr, err := Fit(times, feats)
	if err != nil {
		return nil, err
	}
	p, se := fr.Params, fr.StdErr
	ff := &FormFit{
		Form:   FormLinear,
		Terms:  []string{termCompute, termMessages, termBytes, termFixed},
		Coeffs: []float64{p.ComputeScale, p.LatencySec, p.ByteSec, p.FixedSec},
		StdErr: []float64{se.ComputeScale, se.LatencySec, se.ByteSec, se.FixedSec},
	}
	ff.finish(times, feats)
	return ff, nil
}

// loglogForm is the power-law model fitted in the log domain; quality
// numbers (R², RMSE, SigmaRel) are computed back in the seconds domain so
// the scoreboard compares forms on one scale.
type loglogForm struct{}

func (loglogForm) Name() string { return FormLogLog }
func (loglogForm) Coeffs() int  { return 4 }
func (loglogForm) Describe() string {
	return "T = exp(a) * C^b * M^c * B^d (power law, fitted in log space)"
}

func (loglogForm) Fit(times []float64, feats []Features) (*FormFit, error) {
	for i, f := range feats {
		if times[i] <= 0 || f.Compute <= 0 || f.Messages <= 0 || f.Bytes <= 0 {
			return nil, fmt.Errorf("calib: loglog form needs strictly positive times and features (observation %d): %w",
				i, ErrDegenerate)
		}
	}
	logT := make([]float64, len(times))
	for i, t := range times {
		logT[i] = math.Log(t)
	}
	x, err := solveDesign(logT, feats, []func(Features) float64{
		func(Features) float64 { return 1 },
		func(f Features) float64 { return math.Log(f.Compute) },
		func(f Features) float64 { return math.Log(f.Messages) },
		func(f Features) float64 { return math.Log(f.Bytes) },
	})
	if err != nil {
		return nil, err
	}
	ff := &FormFit{
		Form:   FormLogLog,
		Terms:  []string{"log-const", "log-compute", "log-messages", "log-bytes"},
		Coeffs: x,
	}
	ff.finish(times, feats)
	return ff, nil
}

// interactForm extends the linear model with a messages×bytes coupling
// term — the cost of bandwidth contention growing with message count.
type interactForm struct{}

func (interactForm) Name() string { return FormInteract }
func (interactForm) Coeffs() int  { return 5 }
func (interactForm) Describe() string {
	return "T = scale*C + lat*M + perbyte*B + couple*M*B + fixed (interaction term)"
}

func (interactForm) Fit(times []float64, feats []Features) (*FormFit, error) {
	x, err := solveDesign(times, feats, []func(Features) float64{
		func(f Features) float64 { return f.Compute },
		func(f Features) float64 { return f.Messages },
		func(f Features) float64 { return f.Bytes },
		func(f Features) float64 { return f.Messages * f.Bytes },
		func(Features) float64 { return 1 },
	})
	if err != nil {
		return nil, err
	}
	ff := &FormFit{
		Form:   FormInteract,
		Terms:  []string{termCompute, termMessages, termBytes, "messages*bytes", termFixed},
		Coeffs: x,
	}
	ff.finish(times, feats)
	return ff, nil
}

// piecewiseForm splits the network terms at a message-size breakpoint,
// mirroring the piecewise segment networks machine files describe: small
// messages pay one latency/bandwidth pair, large messages another. The
// breakpoint is chosen by exhaustive search over candidate splits
// (midpoints between observed mean message sizes, subsampled to a
// bounded candidate set), minimizing the residual sum of squares.
type piecewiseForm struct{}

// piecewiseMinSide is the minimum observations each side of a candidate
// breakpoint must keep, and piecewiseMaxCandidates bounds the breakpoint
// search so a 4096-observation dataset cannot demand an O(n²) scan.
const (
	piecewiseMinSide       = 3
	piecewiseMaxCandidates = 32
)

func (piecewiseForm) Name() string { return FormPiecewise }
func (piecewiseForm) Coeffs() int  { return 6 }
func (piecewiseForm) Describe() string {
	return "lo/hi latency+bandwidth split at a bytes-per-message breakpoint (piecewise network)"
}

func (piecewiseForm) Fit(times []float64, feats []Features) (*FormFit, error) {
	if len(times) < 2*piecewiseMinSide+2 {
		return nil, fmt.Errorf("calib: piecewise form needs at least %d observations, got %d: %w",
			2*piecewiseMinSide+2, len(times), ErrDegenerate)
	}
	sizes := make([]float64, len(feats))
	for i, f := range feats {
		if f.Messages <= 0 {
			return nil, fmt.Errorf("calib: piecewise form needs message traffic in every observation (observation %d): %w",
				i, ErrDegenerate)
		}
		sizes[i] = meanMessageSize(f)
	}
	candidates := breakpointCandidates(sizes)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("calib: piecewise form needs varied message sizes to split on: %w", ErrDegenerate)
	}

	var best *FormFit
	bestSSE := math.Inf(1)
	for _, bp := range candidates {
		lo := func(f Features) float64 {
			if meanMessageSize(f) <= bp {
				return 1
			}
			return 0
		}
		x, err := solveDesign(times, feats, []func(Features) float64{
			func(f Features) float64 { return f.Compute },
			func(f Features) float64 { return f.Messages * lo(f) },
			func(f Features) float64 { return f.Bytes * lo(f) },
			func(f Features) float64 { return f.Messages * (1 - lo(f)) },
			func(f Features) float64 { return f.Bytes * (1 - lo(f)) },
			func(Features) float64 { return 1 },
		})
		if err != nil {
			continue
		}
		ff := &FormFit{
			Form: FormPiecewise,
			Terms: []string{termCompute, "messages-lo", "bytes-lo",
				"messages-hi", "bytes-hi", termFixed},
			Coeffs:     x,
			Breakpoint: bp,
		}
		ff.finish(times, feats)
		sse := ff.RMSE * ff.RMSE * float64(ff.N)
		if sse < bestSSE {
			best, bestSSE = ff, sse
		}
	}
	if best == nil {
		return nil, fmt.Errorf("calib: no piecewise breakpoint resolved the design: %w", ErrDegenerate)
	}
	return best, nil
}

// breakpointCandidates builds the bounded candidate-split set: midpoints
// between consecutive distinct observed message sizes that keep
// piecewiseMinSide observations on each side, evenly subsampled down to
// piecewiseMaxCandidates.
func breakpointCandidates(sizes []float64) []float64 {
	sorted := append([]float64(nil), sizes...)
	slices.Sort(sorted)
	var all []float64
	for i := piecewiseMinSide; i <= len(sorted)-piecewiseMinSide; i++ {
		if i == 0 || sorted[i-1] == sorted[i] {
			continue
		}
		all = append(all, (sorted[i-1]+sorted[i])/2)
	}
	if len(all) <= piecewiseMaxCandidates {
		return all
	}
	out := make([]float64, 0, piecewiseMaxCandidates)
	for i := 0; i < piecewiseMaxCandidates; i++ {
		out = append(out, all[i*len(all)/piecewiseMaxCandidates])
	}
	return out
}
