package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 10; i++ {
		s = append(s, time.Duration(i))
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("p%g of 1..10 = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]time.Duration{7}, 99.9); got != 7 {
		t.Errorf("p99.9 of one sample = %d, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %d, want 0", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{45000, 99.9, 45, true}, // p99.99 would leave 4
		{10000, 99.9, 10, true},
		{9999, 99, 99, true}, // p99.9 leaves 9
		{1000, 99, 10, true},
		{999, 95, 49, true}, // p99 leaves 9
		{200, 95, 10, true},
		{100, 90, 10, true},
		{99, 0, 0, false}, // even p90 leaves 9
	} {
		p, beyond, ok := tailPercentile(tc.n)
		if p != tc.p || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d, %v",
				tc.n, p, beyond, ok, tc.p, tc.beyond, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}
