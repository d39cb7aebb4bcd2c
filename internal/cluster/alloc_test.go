package cluster

import (
	"testing"
)

// TestRunnerAllocRegression guards the zero-alloc simulation stepping: a
// warm Runner (the state every SimulateIterations Repeats loop reaches
// after its first iteration) must allocate only the Result and its flat
// compute-time backing — single digits of objects, not the ~6,400 the
// per-call implementation cost. Budget 40 leaves room for incidental
// runtime allocations while catching any reintroduced per-phase or
// per-PE buffer.
func TestRunnerAllocRegression(t *testing.T) {
	sum := summarize(t, 64, 32, 16)
	cfg := baseConfig()
	r := NewRunner(newPlan(t, sum))
	// Warm the buffers once; the regression bound applies at steady state.
	if _, err := r.Simulate(cfg); err != nil {
		t.Fatal(err)
	}
	iter := 0
	allocs := testing.AllocsPerRun(10, func() {
		c := cfg
		c.Iteration = iter
		iter++
		if _, err := r.Simulate(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("warm Runner.Simulate allocated %.0f objects per run, budget 40", allocs)
	}
}
