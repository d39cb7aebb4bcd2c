package calib

import "krak/internal/stats"

// synthesize generates observation times from a predictor over the
// given features, with optional seeded multiplicative noise of relative
// amplitude noiseFrac: the ground truth the recovery and selection
// property tests fit against.
func synthesize(predict func(Features) float64, feats []Features, noiseFrac float64, seed uint64) []float64 {
	rng := stats.Derive(seed, 0xca11b)
	out := make([]float64, len(feats))
	for i, f := range feats {
		t := predict(f)
		if noiseFrac != 0 {
			t *= 1 + noiseFrac*rng.Sym()
		}
		out[i] = t
	}
	return out
}
