//go:build !race

// The race detector instruments allocation, so the allocation pins in
// this file build only without it.

package artifacts

import (
	"testing"

	"krak/internal/mesh"
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
