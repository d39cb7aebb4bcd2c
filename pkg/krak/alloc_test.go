//go:build !race

// The race detector instruments allocation, so the allocation pins in
// this file build only without it.

package krak_test

import (
	"testing"

	"krak/pkg/krak"
)

// TestRenderJSONAllocs pins RenderJSON's allocations on a predict
// body: the boxed wire form, json.Marshal's compact copy and the
// exact-length output. json.MarshalIndent, which it replaced, took 4.
// The budget is that count plus a margin of one.
func TestRenderJSONAllocs(t *testing.T) {
	r := predictResult(t)
	const budget = 3 + 1
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := krak.RenderJSON(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("RenderJSON(predict result) allocated %.0f objects per run, budget %d", allocs, budget)
	}
}
