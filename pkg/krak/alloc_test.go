//go:build !race

// The race detector instruments allocation, so the allocation pins in
// this file build only without it.

package krak_test

import (
	"testing"

	"krak/pkg/krak"
)

// TestRenderJSONAllocs pins RenderJSON's allocations on a predict
// body: the schema stamp's text, json.Marshal's compact copy and the
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

// TestRenderJSONNestedAllocs pins RenderJSON's allocations on bodies
// that nest stamped answers: a 4-point predict sweep (four Results) and
// a 2-version machine history (two CalibrationResults). Each stamp
// encodes in the parent's single pass, at one allocation for its text;
// when the nested values had their own MarshalJSON, encoding/json also
// copied and compacted each one's output, and the two took 11 and 7.
// The budgets are the measured counts plus a margin of one.
func TestRenderJSONNestedAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		v      any
		budget float64
	}{
		{"4-point predict sweep", sweepResult(t), 7 + 1},
		{"2-version machine history", historyResult(t), 5 + 1},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := krak.RenderJSON(c.v); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("RenderJSON(%s): %.0f allocs", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("RenderJSON(%s) allocated %.0f objects per run, budget %.0f", c.name, allocs, c.budget)
		}
	}
}
