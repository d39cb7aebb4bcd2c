package calib

import (
	"fmt"
	"math"
	"testing"

	"krak/internal/stats"
)

// formFeatures draws a feature matrix with enough spread for every form
// in the zoo: a PE-doubling compute/message ladder like drawFeatures,
// plus mean message sizes sweeping 256 B – 128 KB so the piecewise
// split variable actually varies.
func formFeatures(rng *stats.SplitMix64, n int) []Features {
	out := make([]Features, n)
	for i := range out {
		scale := float64(uint(1) << (i % 6))
		msgs := (0.5 + rng.Float64()) * 50 * scale
		msize := 256 * math.Pow(2, 9*rng.Float64())
		out[i] = Features{
			Compute:  (0.5 + rng.Float64()) * 0.2 / scale,
			Messages: msgs,
			Bytes:    msgs * msize,
		}
	}
	return out
}

// generator is one ground-truth model the selection battery must
// recover: a predictor in a known form, with the coefficients the fitted
// FormFit should reproduce.
type generator struct {
	form    string
	predict func(Features) float64
}

func generators() []generator {
	linear := Params{ComputeScale: 1.7, LatencySec: 2e-5, ByteSec: 2e-9, FixedSec: 1e-3}
	const (
		pwBreak                 = 8192.0
		pwScale, pwFixed        = 1.5, 5e-4
		pwLatLo, pwByteLo       = 5e-6, 5e-9
		pwLatHi, pwByteHi       = 4e-5, 1e-9
		llConst, llC, llM, llB  = 1e-3, 0.8, 0.35, 0.25
		inLat, inByte, inCouple = 2e-5, 2e-9, 2e-12
		inScale, inFixed        = 1.7, 1e-3
	)
	return []generator{
		{FormLinear, linear.Predict},
		{FormLogLog, func(f Features) float64 {
			return llConst * math.Pow(f.Compute, llC) * math.Pow(f.Messages, llM) * math.Pow(f.Bytes, llB)
		}},
		{FormInteract, func(f Features) float64 {
			return inScale*f.Compute + inLat*f.Messages + inByte*f.Bytes + inCouple*f.Messages*f.Bytes + inFixed
		}},
		{FormPiecewise, func(f Features) float64 {
			lat, byteSec := pwLatLo, pwByteLo
			if meanMessageSize(f) > pwBreak {
				lat, byteSec = pwLatHi, pwByteHi
			}
			return pwScale*f.Compute + lat*f.Messages + byteSec*f.Bytes + pwFixed
		}},
	}
}

// TestSelectModelRecoversGeneratingForm is the tentpole property: for
// every form in the zoo, on seeded synthetic data generated from that
// form — noiseless and with ±2% multiplicative noise, across fold
// counts — cross-validated selection picks the generating form, and the
// winning fit reproduces the generator within tolerance.
func TestSelectModelRecoversGeneratingForm(t *testing.T) {
	const n = 28
	for _, gen := range generators() {
		for _, noise := range []float64{0, 0.02} {
			for _, folds := range []int{3, 5} {
				name := fmt.Sprintf("%s/noise=%g/k=%d", gen.form, noise, folds)
				t.Run(name, func(t *testing.T) {
					rng := stats.Derive(0x5e1ec7, uint64(folds))
					feats := formFeatures(rng, n)
					times := synthesize(gen.predict, feats, noise, 0xfeed)

					sel, err := SelectModel(times, feats, folds, 0xabc)
					if err != nil {
						t.Fatalf("SelectModel: %v", err)
					}
					if got := sel.Best.Form; got != gen.form {
						t.Fatalf("selected %q, want %q\nscoreboard: %+v", got, gen.form, sel.Scores)
					}

					// The scoreboard covers the whole zoo, in registry
					// order, with exactly one winner.
					if len(sel.Scores) != len(Forms()) {
						t.Fatalf("scoreboard has %d rows, want %d", len(sel.Scores), len(Forms()))
					}
					selected := 0
					for i, form := range Forms() {
						if sel.Scores[i].Form != form.Name() {
							t.Errorf("scoreboard row %d is %q, want %q", i, sel.Scores[i].Form, form.Name())
						}
						if sel.Scores[i].Selected {
							selected++
						}
					}
					if selected != 1 {
						t.Errorf("%d scoreboard rows selected, want 1", selected)
					}

					// Parameter recovery, expressed as prediction accuracy
					// against the noiseless ground truth (coefficients are
					// compared directly for the linear form below).
					tol := 1e-6
					if noise > 0 {
						tol = 0.10
					}
					for i, f := range feats {
						truth := gen.predict(f)
						got := sel.Best.Predict(f)
						if relErr(got, truth) > tol {
							t.Fatalf("observation %d: predicted %.6g, truth %.6g (rel err %.2g > %.2g)",
								i, got, truth, relErr(got, truth), tol)
						}
					}
				})
			}
		}
	}
}

// TestSelectModelRecoversLinearCoefficients pins coefficient-level
// recovery for the form with a direct machine-parameter interpretation.
func TestSelectModelRecoversLinearCoefficients(t *testing.T) {
	want := Params{ComputeScale: 1.7, LatencySec: 2e-5, ByteSec: 2e-9, FixedSec: 1e-3}
	rng := stats.Derive(0x5e1ec7, 99)
	feats := formFeatures(rng, 32)
	times := synthesize(want.Predict, feats, 0, 7)

	sel, err := SelectModel(times, feats, 4, 0xabc)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := sel.Best.LinearParams()
	if !ok {
		t.Fatalf("selected %q has no linear interpretation", sel.Best.Form)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"compute scale", got.ComputeScale, want.ComputeScale},
		{"latency", got.LatencySec, want.LatencySec},
		{"byte cost", got.ByteSec, want.ByteSec},
		{"fixed", got.FixedSec, want.FixedSec},
	} {
		if relErr(c.got, c.want) > 1e-6 {
			t.Errorf("%s: %.6g, want %.6g", c.name, c.got, c.want)
		}
	}
}

// TestPiecewiseRecoversSegments pins the piecewise form's breakpoint and
// per-segment coefficients on a clean split.
func TestPiecewiseRecoversSegments(t *testing.T) {
	gen := generators()[3]
	rng := stats.Derive(0x5e1ec7, 3)
	feats := formFeatures(rng, 28)
	times := synthesize(gen.predict, feats, 0, 0xfeed)

	ff, err := (piecewiseForm{}).Fit(times, feats)
	if err != nil {
		t.Fatal(err)
	}
	// The fitted breakpoint must classify every observation exactly as
	// the generator's 8192 B/msg split does.
	for i, f := range feats {
		if (meanMessageSize(f) > 8192) != (meanMessageSize(f) > ff.Breakpoint) {
			t.Fatalf("observation %d (%.0f B/msg) lands on the wrong side of fitted breakpoint %.0f",
				i, meanMessageSize(f), ff.Breakpoint)
		}
	}
	want := []float64{1.5, 5e-6, 5e-9, 4e-5, 1e-9, 5e-4}
	for j, w := range want {
		if relErr(ff.Coeffs[j], w) > 1e-6 {
			t.Errorf("coeff %s: %.6g, want %.6g", ff.Terms[j], ff.Coeffs[j], w)
		}
	}
}

// TestFormsRegistry pins the zoo's registry contract: stable order,
// ascending parsimony rank, resolvable names, and distinct describes.
func TestFormsRegistry(t *testing.T) {
	forms := Forms()
	wantOrder := []string{FormLinear, FormLogLog, FormInteract, FormPiecewise}
	if len(forms) != len(wantOrder) {
		t.Fatalf("registry has %d forms, want %d", len(forms), len(wantOrder))
	}
	seen := map[string]bool{}
	for i, f := range forms {
		if f.Name() != wantOrder[i] {
			t.Errorf("registry[%d] = %q, want %q", i, f.Name(), wantOrder[i])
		}
		if i > 0 && f.Coeffs() < forms[i-1].Coeffs() {
			t.Errorf("registry order is not ascending parsimony: %q (%d) after %q (%d)",
				f.Name(), f.Coeffs(), forms[i-1].Name(), forms[i-1].Coeffs())
		}
		if f.Describe() == "" || seen[f.Describe()] {
			t.Errorf("form %q has an empty or duplicate description", f.Name())
		}
		seen[f.Describe()] = true
		got, err := FormByName(f.Name())
		if err != nil || got.Name() != f.Name() {
			t.Errorf("FormByName(%q) = %v, %v", f.Name(), got, err)
		}
	}
	if _, err := FormByName("auto"); err == nil {
		t.Error(`FormByName("auto") resolved; "auto" is selection, not a form`)
	}
}

// TestSelectModelDegradedForms asserts forms a dataset cannot support
// appear on the scoreboard with errors instead of failing selection:
// observations without message traffic rule out piecewise and loglog,
// and linear still wins.
func TestSelectModelDegradedForms(t *testing.T) {
	want := Params{ComputeScale: 2, FixedSec: 1e-3}
	rng := stats.Derive(0x5e1ec7, 17)
	feats := make([]Features, 12)
	for i := range feats {
		feats[i] = Features{Compute: (0.5 + rng.Float64()) * 0.1}
	}
	times := synthesize(want.Predict, feats, 0, 3)

	sel, err := SelectModel(times, feats, 3, 0xabc)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best.Form != FormLinear {
		t.Fatalf("selected %q, want linear", sel.Best.Form)
	}
	for _, sc := range sel.Scores {
		switch sc.Form {
		case FormLogLog, FormPiecewise:
			if sc.Err == "" {
				t.Errorf("form %q fitted message-free data; want a scoreboard error", sc.Form)
			}
		}
	}
}

// TestDetectDrift is the stderr-band contract: fresh data from the
// fitted machine stays quiet, fresh data from a different machine flags,
// noiseless base fits do not flag on rounding noise.
func TestDetectDrift(t *testing.T) {
	machineA := Params{ComputeScale: 1.7, LatencySec: 2e-5, ByteSec: 2e-9, FixedSec: 1e-3}
	machineB := Params{ComputeScale: 1.7, LatencySec: 8e-5, ByteSec: 6e-9, FixedSec: 1e-3}
	rng := stats.Derive(0xd21f7, 0)
	feats := formFeatures(rng, 24)
	fresh := formFeatures(rng, 12)

	for _, noise := range []float64{0, 0.02} {
		base, err := (linearForm{}).Fit(synthesize(machineA.Predict, feats, noise, 1), feats)
		if err != nil {
			t.Fatal(err)
		}
		same := DetectDrift(base, synthesize(machineA.Predict, fresh, noise, 2), fresh)
		if same.Flagged {
			t.Errorf("noise=%g: same-machine append flagged: fresh RMSE %.3g vs band %.3g",
				noise, same.FreshRMSE, same.Band)
		}
		moved := DetectDrift(base, synthesize(machineB.Predict, fresh, noise, 2), fresh)
		if !moved.Flagged {
			t.Errorf("noise=%g: changed-machine append not flagged: fresh RMSE %.3g vs band %.3g",
				noise, moved.FreshRMSE, moved.Band)
		}
		if moved.FreshN != len(fresh) || moved.Sigma != base.SigmaRel {
			t.Errorf("noise=%g: drift report bookkeeping wrong: %+v", noise, moved)
		}
	}
}
