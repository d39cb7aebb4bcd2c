// Package calib fits machine-level parameters of the Krak performance
// model to measured timing datasets — the automated counterpart of the
// paper's by-hand procedure of tuning compute rates and latency/bandwidth
// terms until the analytic model tracked the AlphaServer ES45 / QsNet-I
// measurements.
//
// The fitted model is linear in its parameters. Every observation (one
// measured mean iteration time of a deck on a processor count) is reduced
// to three baseline features by evaluating the analytic model at unit
// networks: the baseline-predicted computation seconds, the modeled
// message count (point-to-point messages plus collective tree stages),
// and the modeled bytes on the wire. The machine is then the least-squares
// solution of
//
//	T_i = ComputeScale*Compute_i + LatencySec*Messages_i +
//	      ByteSec*Bytes_i + FixedSec
//
// over all observations i: a compute-rate multiplier relative to the
// baseline cost tables, an effective per-message latency, an effective
// per-byte cost (1/bandwidth), and a fixed per-iteration overhead.
// Fit reports per-parameter standard errors, the linear form's FormFit
// adds the coefficient of determination and residuals, and
// CrossValidateForm the k-fold generalization error. Feature extraction
// itself lives with the façade (pkg/krak), which owns decks, calibrated
// cost curves, and network models; this package is the numerical core
// plus the bounded textual dataset format.
package calib

import "errors"

// ErrDegenerate is returned by Fit when no parameter subset can be
// resolved from the observations (e.g. every feature is zero, or there
// are no observations at all).
var ErrDegenerate = errors.New("calib: dataset is degenerate; parameters are unresolvable")
