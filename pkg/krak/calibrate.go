package krak

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"krak/internal/calib"
	"krak/internal/core"
	"krak/internal/netmodel"
	"krak/internal/stats"
	"krak/internal/textplot"
)

// This file is the calibration entry point of the façade: it turns a
// timing dataset (measured on a real or simulated cluster) into fitted
// machine parameters — a compute-rate multiplier relative to the ES45
// baseline, effective network latency and bandwidth, and a fixed
// per-iteration overhead — by reducing each observation to baseline-model
// features and least-squares fitting them in internal/calib. The fitted
// machine comes back both as reportable parameters (with standard errors,
// R², and optional k-fold cross-validation) and as a ready-to-use
// MachineSpec/machine file, closing the loop: measure, calibrate, then
// predict on the machine the fit described.

// Observation is one measured run of a standard deck: the wire and
// dataset-file form of a timing measurement.
type Observation struct {
	Deck    string  `json:"deck"`
	PEs     int     `json:"pes"`
	Seconds float64 `json:"seconds"`
}

// Dataset is a named measurement campaign: what Session.Calibrate fits.
type Dataset struct {
	Name         string        `json:"name,omitempty"`
	Observations []Observation `json:"observations"`
}

// ParseDataset parses the textual measurement format (see internal/calib:
// "dataset NAME" and "obs DECK PES SECONDS" lines, '#' comments) into a
// Dataset. Malformed input returns ErrCalibration.
func ParseDataset(src []byte) (*Dataset, error) {
	ds, err := calib.ParseDataset(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCalibration, err)
	}
	out := &Dataset{Name: ds.Name}
	for _, o := range ds.Obs {
		//krakcheck:ignore boundedparse calib.ParseDataset above already enforces MaxDatasetBytes and MaxObservations on ds.Obs
		out.Observations = append(out.Observations, Observation(o))
	}
	return out, nil
}

// Format renders the dataset back into the textual measurement format
// ParseDataset reads.
func (d *Dataset) Format() []byte {
	cd := calib.Dataset{Name: d.Name}
	for _, o := range d.Observations {
		cd.Obs = append(cd.Obs, calib.Observation(o))
	}
	return cd.Format()
}

// CalibrateOptions tunes Session.Calibrate.
type CalibrateOptions struct {
	// Folds enables the k-fold cross-validation report when >= 2; 0
	// disables it. Values outside [2, len(observations)] are rejected.
	// Automatic form selection always cross-validates internally, using
	// Folds when set and min(5, observations) otherwise.
	Folds int

	// Form selects the timing-model form: a ModelForms name ("linear",
	// "loglog", "interact", "piecewise"), or FormAuto — the default,
	// also spelled "" — to fit every candidate and pick the
	// cross-validation winner with a parsimony tie-break.
	Form string
}

// FormAuto is the CalibrateOptions.Form (and wire "form") value
// requesting automatic model selection over the whole form zoo.
const FormAuto = "auto"

// FormInfo describes one candidate model form of the calibration zoo.
type FormInfo struct {
	Name        string `json:"name"`
	Coeffs      int    `json:"coeffs"`
	Description string `json:"description"`
}

// ModelForms lists the candidate model forms in registry (ascending
// parsimony) order — the valid explicit CalibrateOptions.Form values.
func ModelForms() []FormInfo {
	var out []FormInfo
	for _, f := range calib.Forms() {
		out = append(out, FormInfo{Name: f.Name(), Coeffs: f.Coeffs(), Description: f.Describe()})
	}
	return out
}

// FormScore is one scoreboard row of an automatic model selection: how a
// candidate form fitted and cross-validated on the dataset.
type FormScore struct {
	Form          string  `json:"form"`
	Coeffs        int     `json:"coeffs"`
	R2            float64 `json:"r2"`
	RMSESeconds   float64 `json:"rmse_s"`
	CVRMSESeconds float64 `json:"cv_rmse_s"`
	CVMAPE        float64 `json:"cv_mape"`
	Selected      bool    `json:"selected,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// DriftReport scores fresh measurements against the model fitted on the
// stored observations alone (see Session.CalibrateAppend). The flag
// statistic is relative — observation times span orders of magnitude,
// so an absolute band would be set entirely by the slowest points.
type DriftReport struct {
	// Flagged is true when the fresh residuals left the band: the
	// machine the fresh data came from no longer looks like the one the
	// stored fit described.
	Flagged bool `json:"flagged"`

	// FreshObservations counts the appended measurements checked.
	FreshObservations int `json:"fresh_observations"`

	// FreshRMSESeconds is the fresh data's RMS absolute residual under
	// the stored fit, for context; the flag statistic is FreshRelRMS.
	FreshRMSESeconds float64 `json:"fresh_rmse_s"`

	// FreshRelRMS is the fresh data's RMS relative residual — the
	// statistic compared against Band.
	FreshRelRMS float64 `json:"fresh_rel_rms"`

	// Band is the acceptance threshold on FreshRelRMS: three relative
	// residual standard errors of the stored fit (floored so noiseless
	// fits do not flag on rounding noise).
	Band float64 `json:"band_rel"`

	// SigmaRel is the stored fit's relative residual stderr the band is
	// built from.
	SigmaRel float64 `json:"sigma_rel"`
}

// FitParams are fitted machine parameters (or their standard errors) in
// model units: seconds, and a unitless compute multiplier.
type FitParams struct {
	// ComputeScale multiplies the baseline ES45 computation rates.
	ComputeScale float64 `json:"compute_scale"`

	// LatencySeconds is the effective per-message latency.
	LatencySeconds float64 `json:"latency_s"`

	// SecondsPerByte is the effective per-byte wire cost (1/bandwidth).
	SecondsPerByte float64 `json:"s_per_byte"`

	// FixedSeconds is the fixed per-iteration overhead.
	FixedSeconds float64 `json:"fixed_s"`
}

// CVReport is the k-fold cross-validation block of a CalibrationResult.
type CVReport struct {
	Folds       int     `json:"folds"`
	RMSESeconds float64 `json:"rmse_s"`
	MAPE        float64 `json:"mape"`
	MaxAPE      float64 `json:"max_ape"`
}

// CalibrationPoint is one observation's share of the fit: observed vs
// fitted seconds, with the paper's (measured-predicted)/measured error
// convention.
type CalibrationPoint struct {
	Deck            string  `json:"deck"`
	PEs             int     `json:"pes"`
	ObservedSeconds float64 `json:"observed_s"`
	FittedSeconds   float64 `json:"fitted_s"`
	RelErr          float64 `json:"rel_err"`
}

// CalibrationResult reports a Session.Calibrate run: the fitted machine
// parameters with per-parameter standard errors, the fit quality,
// optional cross-validation, every observation's residual, and the
// fitted machine as a MachineSpec ready for LoadMachine / -machine-file
// / wire requests.
type CalibrationResult struct {
	Dataset      string `json:"dataset,omitempty"`
	Observations int    `json:"observations"`
	Model        string `json:"model"`

	// Form is the fitted model form (a ModelForms name), Terms and
	// Coeffs its aligned term names and fitted coefficients, and
	// Breakpoint the piecewise form's bytes-per-message split (0 for
	// every other form).
	Form       string    `json:"form"`
	Terms      []string  `json:"terms"`
	Coeffs     []float64 `json:"coeffs"`
	Breakpoint float64   `json:"breakpoint_bytes,omitempty"`

	// Params and StdErr are the linear-equivalent machine parameters:
	// for the linear form they are the fit itself; for richer forms they
	// come from a side linear fit of the same data, keeping a
	// machine-file interpretation available.
	Params FitParams `json:"params"`
	StdErr FitParams `json:"stderr"`

	R2          float64 `json:"r2"`
	RMSESeconds float64 `json:"rmse_s"`

	// SigmaRel is the fit's degrees-of-freedom-corrected RMS relative
	// residual — the stderr band drift detection checks appended
	// measurements against.
	SigmaRel float64 `json:"sigma_rel"`

	// Scoreboard reports every candidate form's fit and CV scores when
	// the form was selected automatically; nil for an explicit Form.
	Scoreboard []FormScore `json:"scoreboard,omitempty"`

	// Drift is set by Session.CalibrateAppend: how the appended
	// measurements scored against the stored fit before the refit.
	Drift *DriftReport `json:"drift,omitempty"`

	CV *CVReport `json:"cv,omitempty"`

	Points []CalibrationPoint `json:"points"`

	// Fitted is the calibrated machine: a network at the fitted
	// latency/bandwidth (two segments split at the breakpoint for the
	// piecewise form, one segment otherwise) plus the fitted compute
	// scale, carrying the calibrating machine's seed and quick mode.
	// Parameters are clamped into the machine-file ranges (non-negative
	// latency, positive scale).
	Fitted MachineSpec `json:"fitted_machine"`

	// FittedFingerprint is Fitted.Fingerprint(): the identity the
	// machine registry stores calibration history under.
	FittedFingerprint string `json:"fitted_fingerprint"`
}

// CalibrationSchema identifies the JSON layout CalibrationResult
// marshals to.
const CalibrationSchema = "krak.calibration/v1"

// MarshalJSON renders the calibration for machine consumption (the CLI's
// --json flag and /v1/calibrate), stamping the schema identifier.
func (cr *CalibrationResult) MarshalJSON() ([]byte, error) {
	type alias CalibrationResult
	b, err := json.Marshal(struct {
		Schema string `json:"schema"`
		*alias
	}{Schema: CalibrationSchema, alias: (*alias)(cr)})
	if err != nil {
		return nil, fmt.Errorf("%w: encoding calibration: %w", ErrSchema, err)
	}
	return b, nil
}

// UnmarshalJSON decodes a CalibrationResult produced by MarshalJSON,
// rejecting payloads whose schema stamp is not CalibrationSchema with
// ErrSchema.
func (cr *CalibrationResult) UnmarshalJSON(data []byte) error {
	type alias CalibrationResult
	aux := struct {
		Schema string `json:"schema"`
		*alias
	}{alias: (*alias)(cr)}
	if err := json.Unmarshal(data, &aux); err != nil {
		return fmt.Errorf("%w: decoding calibration: %w", ErrSchema, err)
	}
	if aux.Schema != CalibrationSchema {
		return fmt.Errorf("%w: got %q, want %q", ErrSchema, aux.Schema, CalibrationSchema)
	}
	return nil
}

// Render formats the calibration for a terminal, mirroring the JSON
// content and appending the fitted machine file.
func (cr *CalibrationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Calibration of %d observations", cr.Observations)
	if cr.Dataset != "" {
		fmt.Fprintf(&b, " (dataset %s)", cr.Dataset)
	}
	fmt.Fprintf(&b, " under the %s model", cr.Model)
	if cr.Form != "" {
		fmt.Fprintf(&b, " (form %s)", cr.Form)
	}
	b.WriteString("\n\n")

	bw := "inf"
	if cr.Params.SecondsPerByte > 0 {
		bw = fmt.Sprintf("%.1f MB/s", 1/(cr.Params.SecondsPerByte*1e6))
	}
	rows := [][]string{
		{"compute scale", fmt.Sprintf("%.4f", cr.Params.ComputeScale),
			fmt.Sprintf("%.2g", cr.StdErr.ComputeScale), "x ES45 baseline"},
		{"latency", fmt.Sprintf("%.3f us", cr.Params.LatencySeconds*1e6),
			fmt.Sprintf("%.2g us", cr.StdErr.LatencySeconds*1e6), "per message"},
		{"bandwidth", bw,
			fmt.Sprintf("%.2g s/B", cr.StdErr.SecondsPerByte),
			fmt.Sprintf("%.3g s/B", cr.Params.SecondsPerByte)},
		{"fixed overhead", fmt.Sprintf("%.4f ms", cr.Params.FixedSeconds*1e3),
			fmt.Sprintf("%.2g ms", cr.StdErr.FixedSeconds*1e3), "per iteration"},
	}
	b.WriteString(textplot.Table([]string{"Parameter", "Fitted", "Std err", "Note"}, rows))
	fmt.Fprintf(&b, "\nFit (terms: %s): R^2 %.6f, RMSE %.4f ms\n",
		strings.Join(cr.Terms, "+"), cr.R2, cr.RMSESeconds*1e3)
	if cr.Form != "" && cr.Form != calib.FormLinear && len(cr.Coeffs) == len(cr.Terms) {
		parts := make([]string, len(cr.Coeffs))
		for i, c := range cr.Coeffs {
			parts[i] = fmt.Sprintf("%s=%.4g", cr.Terms[i], c)
		}
		fmt.Fprintf(&b, "Form coefficients: %s\n", strings.Join(parts, " "))
		if cr.Breakpoint > 0 {
			fmt.Fprintf(&b, "Breakpoint: %.0f B/msg\n", cr.Breakpoint)
		}
	}
	if cr.CV != nil {
		fmt.Fprintf(&b, "Cross-validation (k=%d): RMSE %.4f ms, MAPE %s (max %s)\n",
			cr.CV.Folds, cr.CV.RMSESeconds*1e3, stats.FormatPct(cr.CV.MAPE), stats.FormatPct(cr.CV.MaxAPE))
	}
	if len(cr.Scoreboard) > 0 {
		b.WriteByte('\n')
		var srows [][]string
		for _, sc := range cr.Scoreboard {
			note := ""
			if sc.Selected {
				note = "selected"
			}
			if sc.Error != "" {
				note = sc.Error
			}
			srows = append(srows, []string{
				sc.Form,
				fmt.Sprintf("%d", sc.Coeffs),
				fmt.Sprintf("%.4f", sc.CVRMSESeconds*1e3),
				stats.FormatPct(sc.CVMAPE),
				fmt.Sprintf("%.6f", sc.R2),
				note,
			})
		}
		b.WriteString(textplot.Table([]string{"Form", "Coeffs", "CV RMSE (ms)", "CV MAPE", "R^2", "Note"}, srows))
	}
	if cr.Drift != nil {
		verdict := "within band"
		if cr.Drift.Flagged {
			verdict = "DRIFT FLAGGED"
		}
		fmt.Fprintf(&b, "\nDrift check: %d fresh observations, rel RMS %.3g vs band %.3g (sigma_rel %.3g): %s\n",
			cr.Drift.FreshObservations, cr.Drift.FreshRelRMS, cr.Drift.Band, cr.Drift.SigmaRel, verdict)
	}

	b.WriteByte('\n')
	var prow [][]string
	for _, pt := range cr.Points {
		prow = append(prow, []string{
			pt.Deck,
			fmt.Sprintf("%d", pt.PEs),
			fmt.Sprintf("%.3f", pt.ObservedSeconds*1e3),
			fmt.Sprintf("%.3f", pt.FittedSeconds*1e3),
			stats.FormatPct(pt.RelErr),
		})
	}
	b.WriteString(textplot.Table([]string{"Deck", "PEs", "Observed (ms)", "Fitted (ms)", "Err"}, prow))

	fmt.Fprintf(&b, "\nFitted machine file:\n")
	for _, line := range strings.Split(strings.TrimSuffix(string(FormatMachineFile(cr.Fitted)), "\n"), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	return b.String()
}

// The unit probe networks feature extraction evaluates the model at: one
// second per message isolates the message count, one second per byte
// isolates the byte volume.
var (
	probeLatencyNet = netmodel.MustNew("probe-latency", []netmodel.Segment{{MinBytes: 0, Latency: 1}})
	probeByteNet    = netmodel.MustNew("probe-bytes", []netmodel.Segment{{MinBytes: 0, PerByte: 1}})
)

// featureMode maps the session's model choice onto the general model's
// material mode; calibration features come from the general model, so
// mesh-specific sessions are rejected.
func featureMode(m Model) (core.MaterialMode, error) {
	switch m {
	case GeneralHomogeneous:
		return core.Homogeneous, nil
	case GeneralHeterogeneous:
		return core.Heterogeneous, nil
	}
	return 0, fmt.Errorf("%w: calibration features need a general model (general-homo or general-het), not %v",
		ErrCalibration, m)
}

// features reduces each observation to its baseline-model features:
// baseline-predicted compute seconds, modeled message count, and modeled
// wire bytes, computed against the reference ES45 rates in the machine's
// feature environment (see Machine.featureEnv) so a custom or scaled
// machine is fitted relative to the common baseline.
func (s *Session) features(ctx context.Context, obs []Observation) ([]calib.Features, error) {
	mode, err := featureMode(s.sc.model)
	if err != nil {
		return nil, err
	}
	fenv := s.m.featureEnv()
	cal, cerr := fenv.ContrivedCalibration()
	if cerr != nil {
		return nil, fmt.Errorf("%w: baseline calibration: %w", ErrCalibration, cerr)
	}
	cache := map[string]calib.Features{}
	out := make([]calib.Features, len(obs))
	for i, o := range obs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%s/%d", o.Deck, o.PEs)
		if f, ok := cache[key]; ok {
			out[i] = f
			continue
		}
		size, err := deckSizeByName(o.Deck)
		if err != nil {
			return nil, fmt.Errorf("%w: observation %d: %v", ErrCalibration, i, err)
		}
		d, err := fenv.Deck(size)
		if err != nil {
			return nil, fmt.Errorf("%w: feature deck %s: %w", ErrCalibration, o.Deck, err)
		}
		cells := d.Mesh.NumCells()
		pL, err := core.NewGeneral(cal, probeLatencyNet, mode).Predict(cells, o.PEs)
		if err != nil {
			return nil, fmt.Errorf("%w: feature model at %s/%d: %w", ErrCalibration, o.Deck, o.PEs, err)
		}
		pB, err := core.NewGeneral(cal, probeByteNet, mode).Predict(cells, o.PEs)
		if err != nil {
			return nil, fmt.Errorf("%w: feature model at %s/%d: %w", ErrCalibration, o.Deck, o.PEs, err)
		}
		f := calib.Features{
			Compute:  pL.Compute(),
			Messages: pL.Communication(),
			Bytes:    pB.Communication(),
		}
		cache[key] = f
		out[i] = f
	}
	return out, nil
}

// Calibrate fits machine parameters to the dataset's observations (see
// the package-level calibration overview on CalibrationResult): each
// observation is reduced to baseline features of the session's general
// model variant and the linear timing model is least-squares fitted in
// internal/calib. Fitting is deterministic for a fixed machine and
// dataset, so the rendered and JSON outputs are byte-stable. Invalid
// datasets, unknown decks, mesh-specific sessions, bad fold counts, and
// degenerate fits return ErrCalibration.
func (s *Session) Calibrate(ctx context.Context, ds *Dataset, opt CalibrateOptions) (*CalibrationResult, error) {
	cr, _, err := s.calibrate(ctx, ds, opt)
	return cr, err
}

// CalibrateAppend folds fresh measurements into a stored dataset: the
// stored observations are fitted alone, the fresh observations are
// scored against that fit for drift (see DriftReport), and the merged
// dataset is refitted to produce the returned result — which carries the
// drift verdict. The check answers "does the new data still look like
// the machine the old fit described?" before the refit absorbs it.
func (s *Session) CalibrateAppend(ctx context.Context, base, fresh *Dataset, opt CalibrateOptions) (*CalibrationResult, error) {
	freshTimes, err := datasetTimes(fresh)
	if err != nil {
		return nil, err
	}
	// The base fit is internal: folds are left to selection's default so
	// a fold count sized for the merged dataset cannot over-split a
	// small base; only the merged result reports CV.
	baseOpt := opt
	baseOpt.Folds = 0
	_, baseFit, err := s.calibrate(ctx, base, baseOpt)
	if err != nil {
		return nil, err
	}
	freshFeats, err := s.features(ctx, fresh.Observations)
	if err != nil {
		return nil, err
	}
	d := calib.DetectDrift(baseFit, freshTimes, freshFeats)

	merged := &Dataset{Name: base.Name}
	merged.Observations = append(merged.Observations, base.Observations...)
	merged.Observations = append(merged.Observations, fresh.Observations...)
	cr, _, err := s.calibrate(ctx, merged, opt)
	if err != nil {
		return nil, err
	}
	cr.Drift = &DriftReport{
		Flagged:           d.Flagged,
		FreshObservations: d.FreshN,
		FreshRMSESeconds:  d.FreshRMSE,
		FreshRelRMS:       d.FreshRelRMS,
		Band:              d.Band,
		SigmaRel:          d.Sigma,
	}
	return cr, nil
}

// datasetTimes validates the dataset's shape and observation values and
// extracts the observed times.
func datasetTimes(ds *Dataset) ([]float64, error) {
	if ds == nil || len(ds.Observations) == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrCalibration)
	}
	if len(ds.Observations) > calib.MaxObservations {
		return nil, fmt.Errorf("%w: %d observations, max %d",
			ErrCalibration, len(ds.Observations), calib.MaxObservations)
	}
	times := make([]float64, len(ds.Observations))
	for i, o := range ds.Observations {
		if o.PEs <= 0 {
			return nil, fmt.Errorf("%w: observation %d: processor count %d", ErrCalibration, i, o.PEs)
		}
		if math.IsNaN(o.Seconds) || math.IsInf(o.Seconds, 0) || o.Seconds <= 0 {
			return nil, fmt.Errorf("%w: observation %d: seconds %g", ErrCalibration, i, o.Seconds)
		}
		times[i] = o.Seconds
	}
	return times, nil
}

// fitForm fits one named form, wrapping calib errors as ErrCalibration.
func fitForm(times []float64, feats []calib.Features, name string) (*calib.FormFit, error) {
	form, err := calib.FormByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCalibration, err)
	}
	ff, err := form.Fit(times, feats)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCalibration, err)
	}
	return ff, nil
}

// calibrate is Calibrate plus the winning internal fit, for callers that
// keep scoring against it (CalibrateAppend's drift check).
func (s *Session) calibrate(ctx context.Context, ds *Dataset, opt CalibrateOptions) (*CalibrationResult, *calib.FormFit, error) {
	times, err := datasetTimes(ds)
	if err != nil {
		return nil, nil, err
	}
	n := len(times)
	if opt.Folds != 0 && (opt.Folds < 2 || opt.Folds > n) {
		return nil, nil, fmt.Errorf("%w: %d folds for %d observations", ErrCalibration, opt.Folds, n)
	}

	feats, err := s.features(ctx, ds.Observations)
	if err != nil {
		return nil, nil, err
	}

	var best *calib.FormFit
	var scoreboard []FormScore
	switch formName := strings.ToLower(opt.Form); formName {
	case "", FormAuto:
		k := opt.Folds
		if k == 0 && n >= 2 {
			k = 5
			if k > n {
				k = n
			}
		}
		if k < 2 {
			// A single observation cannot cross-validate; fall back to
			// the linear form with no scoreboard.
			best, err = fitForm(times, feats, calib.FormLinear)
			if err != nil {
				return nil, nil, err
			}
			break
		}
		sel, serr := calib.SelectModel(times, feats, k, s.m.Seed())
		if serr != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCalibration, serr)
		}
		best = sel.Best
		for _, sc := range sel.Scores {
			scoreboard = append(scoreboard, FormScore{
				Form: sc.Form, Coeffs: sc.Coeffs,
				R2: sc.R2, RMSESeconds: sc.RMSE,
				CVRMSESeconds: sc.CVRMSE, CVMAPE: sc.CVMAPE,
				Selected: sc.Selected, Error: sc.Err,
			})
		}
	default:
		best, err = fitForm(times, feats, formName)
		if err != nil {
			return nil, nil, err
		}
	}

	// The linear fit backs Params/StdErr — the machine-file
	// interpretation — whatever form won: the winner itself when linear,
	// else a side linear fit of the same data. Its fallback ladder makes
	// it nearly always available; when even that degenerates while a
	// richer form fitted, the parameters are simply left zero.
	lin := best
	if best.Form != calib.FormLinear {
		lin, _ = fitForm(times, feats, calib.FormLinear)
	}
	var linP, linSE FitParams
	if lin != nil {
		linP, linSE = fitParams(lin.Coeffs), fitParams(lin.StdErr)
	}

	cr := &CalibrationResult{
		Dataset:      ds.Name,
		Observations: n,
		Model:        s.sc.model.String(),
		Form:         best.Form,
		Terms:        best.Terms,
		Coeffs:       best.Coeffs,
		Breakpoint:   best.Breakpoint,
		Params:       linP,
		StdErr:       linSE,
		R2:           best.R2,
		RMSESeconds:  best.RMSE,
		SigmaRel:     best.SigmaRel,
		Scoreboard:   scoreboard,
		Fitted:       s.fittedSpec(best, linP),
	}
	cr.FittedFingerprint = cr.Fitted.Fingerprint()
	for i, o := range ds.Observations {
		fitted := best.Predict(feats[i])
		cr.Points = append(cr.Points, CalibrationPoint{
			Deck:            o.Deck,
			PEs:             o.PEs,
			ObservedSeconds: o.Seconds,
			FittedSeconds:   fitted,
			RelErr:          stats.RelErr(o.Seconds, fitted),
		})
	}
	if opt.Folds >= 2 {
		form, ferr := calib.FormByName(best.Form)
		if ferr != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCalibration, ferr)
		}
		cv, cerr := calib.CrossValidateForm(times, feats, opt.Folds, s.m.Seed(), form)
		if cerr != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCalibration, cerr)
		}
		cr.CV = &CVReport{Folds: cv.Folds, RMSESeconds: cv.RMSE, MAPE: cv.MAPE, MaxAPE: cv.MaxAPE}
	}
	return cr, best, nil
}

// fitParams maps the linear form's coefficient order (compute, messages,
// bytes, fixed) onto FitParams.
func fitParams(c []float64) FitParams {
	return FitParams{
		ComputeScale:   c[0],
		LatencySeconds: c[1],
		SecondsPerByte: c[2],
		FixedSeconds:   c[3],
	}
}

// fittedSegment clamps one fitted latency / byte-cost pair into the
// machine-file segment ranges (non-negative latency, bandwidth capped).
func fittedSegment(minBytes int, latSec, byteSec float64) SegmentSpec {
	latUS := latSec * 1e6
	if !(latUS > 0) {
		latUS = 0
	} else if latUS > 1e9 {
		latUS = 1e9
	}
	bwMBs := 0.0
	if byteSec > 0 {
		bwMBs = 1 / (byteSec * 1e6)
		if bwMBs > 1e9 {
			bwMBs = 1e9
		}
	}
	return SegmentSpec{MinBytes: minBytes, LatencyUS: latUS, BandwidthMBs: bwMBs}
}

// fittedSpec converts the winning fit into a usable machine. The linear
// parameters (the linear winner's own, or the side fit's standing in for
// loglog and interact winners) map onto a single-segment network; the
// piecewise form becomes a two-segment network splitting at the fitted
// breakpoint, which is exactly what the machine-file segment syntax
// expresses. Everything is clamped into the machine-file ranges.
func (s *Session) fittedSpec(best *calib.FormFit, lin FitParams) MachineSpec {
	scale := lin.ComputeScale
	segments := []SegmentSpec{fittedSegment(0, lin.LatencySeconds, lin.SecondsPerByte)}
	if best.Form == calib.FormPiecewise && len(best.Coeffs) == 6 && int(best.Breakpoint) > 0 {
		scale = best.Coeffs[0]
		segments = []SegmentSpec{
			fittedSegment(0, best.Coeffs[1], best.Coeffs[2]),
			fittedSegment(int(best.Breakpoint), best.Coeffs[3], best.Coeffs[4]),
		}
	}
	if !(scale > 0) {
		scale = 1
	} else if scale > 1e6 {
		scale = 1e6
	}
	spec := MachineSpec{
		Name:           "calibrated",
		Network:        &NetworkSpec{Name: "calibrated", Segments: segments},
		ComputeScale:   scale,
		Seed:           s.m.Seed(),
		Quick:          s.m.Quick(),
		SerializeSends: s.m.serialize,
	}
	if s.m.repeatsSet {
		spec.Repeats = s.m.env.Repeats
	}
	return spec.Normalized()
}

// SynthesizeDataset measures the session's machine over the (deck × PE)
// grid — SweepSimulate runs the discrete-event cluster simulator at every
// point ("measured" times with noise and real partitions), SweepPredict
// evaluates the analytic model (noiseless, exactly linear in the machine
// parameters) — and returns the observations as a Dataset ready for
// Calibrate or Format. Empty decks/pes default to the sweep defaults.
// The grid runs concurrently on the machine's worker pool and is bounded
// by MaxSweepPoints.
func (s *Session) SynthesizeDataset(ctx context.Context, op SweepOp, decks []string, pes []int) (*Dataset, error) {
	req := SweepRequest{
		Op:          string(op),
		Decks:       decks,
		PEs:         pes,
		Model:       s.sc.model.String(),
		Partitioner: s.sc.partitioner,
	}
	if s.sc.iterations > 0 {
		req.Iterations = s.sc.iterations
	}
	sweepOp, grid, err := req.Grid()
	if err != nil {
		return nil, err
	}
	sr, err := s.Sweep(ctx, sweepOp, grid)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Name: "synth-" + string(sweepOp)}
	for _, pt := range sr.Points {
		ds.Observations = append(ds.Observations, Observation{
			Deck:    pt.Deck,
			PEs:     pt.PEs,
			Seconds: pt.Result.TotalSeconds,
		})
	}
	return ds, nil
}
