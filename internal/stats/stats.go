// Package stats provides small statistics helpers shared by the Krak
// performance-model experiments: summary statistics, relative-error
// computation, and a deterministic splittable RNG used to inject
// reproducible measurement noise into the cluster simulator.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// RelErr returns (predicted-measured)/measured. By the paper's convention in
// Tables 5 and 6, a positive error means under-prediction is negative — the
// paper reports Error = (Meas - Pred) / Meas. We follow the paper.
func RelErr(measured, predicted float64) float64 {
	if measured == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (measured - predicted) / measured
}

// FormatPct renders a fraction as a signed percentage like the paper's
// validation tables ("-8.0%", "2.9%").
func FormatPct(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// SplitMix64 is a tiny deterministic PRNG (the splitmix64 generator). It is
// used to derive reproducible per-(PE, phase) noise in the cluster simulator
// without any global state or lock contention.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 seeds a generator.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Next returns the next 64-bit value.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// Sym returns a uniform value in [-1, 1).
func (s *SplitMix64) Sym() float64 { return 2*s.Float64() - 1 }

// Derive returns a new generator whose stream is a deterministic function of
// the parent seed and the given keys; streams for distinct keys are
// independent for practical purposes.
func Derive(seed uint64, keys ...uint64) *SplitMix64 {
	h := seed
	for _, k := range keys {
		h ^= k + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		mix := SplitMix64{state: h}
		h = mix.Next()
	}
	return NewSplitMix64(h)
}
