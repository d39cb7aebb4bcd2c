package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. An empty slice yields 0.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[max(1, min(rank(p, n), n))-1]
}

// rank is the nearest-rank position of the p-th percentile among n
// samples: ceil(p*n/100), with a tolerance so 99.9*45000/100 is 44955,
// not 44956 from rounding.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailCandidates are the tail percentiles a report may print, highest
// first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90}

// minBeyond is how many samples must lie above a percentile before it is
// reported: fewer, and the "percentile" is one or two unlucky requests.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile with at least
// minBeyond of n samples beyond it, and how many that is. ok is false
// when even p90 has too few samples beyond it.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, c := range tailCandidates {
		// The samples strictly beyond the percentile's rank.
		b := n - rank(c, n)
		if b >= minBeyond {
			return c, b, true
		}
	}
	return 0, 0, false
}

// sortedCopy returns the durations sorted ascending, leaving d untouched.
func sortedCopy(d []time.Duration) []time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// median returns the median of v (the mean of the middle two for an even
// count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of v; 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
