//go:build !race

// The race detector instruments allocation, so the allocation pins in
// this file build only without it.

package artifacts

import (
	"testing"

	"krak/internal/cluster"
	"krak/internal/compute"
	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/partition"
)

// TestSummaryHitAllocs pins the allocations of a partition-summary hit,
// the artifact every predict and simulate miss resolves: building the
// (deck, partitioner, seed, parts) key and one cache lookup. The budget
// is the count measured when it was set plus a margin of 2; a change
// that allocates more raises the budget in its diff and says why.
func TestSummaryHitAllocs(t *testing.T) {
	d, err := mesh.BuildLayeredDeck(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	ml := partition.NewMultilevel(1)
	if _, err := s.Summary(d, ml, 1, 4); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Summary(d, ml, 1, 4); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("summary hit: %.0f allocs", allocs)
	const budget = 3 + 2
	if allocs > budget {
		t.Errorf("a summary hit allocated %.0f objects, budget %d", allocs, budget)
	}
}

// TestSimulateIterationsAllocs pins the simulator's serving path: a
// simulate request takes the Store's plan and runs SimulateIterations on
// a fresh Runner, which sizes its three working buffers (wire times,
// posting times, arrivals) once, then allocates each iteration's Result
// and its compute-time backing, plus the results slice. Three iterations
// are 3 + 1 + 3*2 = 10 objects; the budget is that plus a margin of 2.
// Laying the messages out per request, as the simulator did before plans
// were Store artifacts, cost 33.
func TestSimulateIterationsAllocs(t *testing.T) {
	s := NewStore()
	d, err := s.LayeredDeck(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.Plan(d, partition.NewMultilevel(1), 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Net: netmodel.QsNetI(), Costs: compute.ES45()}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := cluster.SimulateIterations(plan, cfg, 3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("SimulateIterations, 3 iterations over a Store-held plan: %.0f allocs", allocs)
	const budget = 10 + 2
	if allocs > budget {
		t.Errorf("SimulateIterations allocated %.0f objects, budget %d", allocs, budget)
	}
}
