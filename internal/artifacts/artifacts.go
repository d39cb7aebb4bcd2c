// Package artifacts is the cross-layer cache of the expensive derived
// objects every evaluation path needs: built decks, their dual graphs,
// partition vectors and summaries, and the simulator's exchange plans.
// The experiments environment, the pkg/krak façade
// (Predict/Simulate/Sweep/RunHydro/Partition), and the HTTP server all
// resolve these through one Store, so a mesh is built once, its graph is
// extracted once, a (deck content, partitioner, seed, p) partition is
// computed once, and its messages are laid out once — no matter which
// layer asks first or how many concurrent jobs ask at the same time.
//
// Identity is content: every cache below the decks keys on
// mesh.Deck.CacheKey, which has no name in it, so decks of one mesh —
// quick Medium and Large, a standard deck and the layered deck of its
// size, a parsed deck of the same cells — share one graph and one set of
// partitions, summaries and plans. A partitioner's error is named after
// each caller's deck.
//
// Every cache is an unbounded engine.Cache: duplicate concurrent requests
// coalesce onto one computation, a failed computation is not kept (the
// next request retries it), and results are immutable by convention —
// callers must never mutate a returned deck, graph, vector, summary, or
// plan. Partition identity is (deck content, partitioner name, seed,
// parts): the partitioner's Name() must pin the algorithm and the caller
// must pass the same seed the partitioner was built with, which is what
// keys cached results to the machine configuration that produced them.
// A summary does not keep its cell vector: only Vector's callers (the
// partition report, parallel hydro, Figure 1) hold one, at 8 bytes per
// cell. The Store lives in memory; DiskCache (disk.go) is the on-disk
// store the server's machine registry keeps its history versions in.
package artifacts

import (
	"fmt"
	"sync/atomic"

	"krak/internal/cluster"
	"krak/internal/engine"
	"krak/internal/mesh"
	"krak/internal/partition"
)

// Store memoizes decks, graphs, partitions, and exchange plans in
// single-flight caches.
// The zero value is ready to use; a Store must not be copied after first
// use. One Store may back any number of environments/machines whose
// artifact-relevant configuration (deck content, partitioner seeds —
// both part of the cache keys) differs: the keys keep them apart while
// letting everything shareable be shared.
type Store struct {
	decks   engine.Cache[string, *mesh.Deck]
	graphs  engine.Cache[string, *partition.Graph]
	vectors engine.Cache[string, []int]
	sums    engine.Cache[string, *mesh.PartitionSummary]
	plans   engine.Cache[string, *cluster.Plan]

	// partitionComputes counts actual partitioner runs. The serving
	// metrics expose it.
	partitionComputes atomic.Int64
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// PartitionComputes reports how many partition vectors were computed from
// scratch — cache misses that reached the partitioner.
func (s *Store) PartitionComputes() int64 { return s.partitionComputes.Load() }

// quickDeckCellCap bounds quick-mode standard decks (cells), halving each
// dimension until the deck fits.
const quickDeckCellCap = 51200

// StandardDeck returns (and caches) a standard deck, shrunk under the
// quick cap when quick is set: LayeredDeck's mesh at those dimensions
// under the size's own name (Medium-quick, Large-quick, or the bare size
// at full scale). Under quick, Medium and Large share one 320x160 mesh.
func (s *Store) StandardDeck(sz mesh.StandardSize, quick bool) (*mesh.Deck, error) {
	name := sz.String()
	if quick {
		name += "-quick"
	}
	d, _, err := s.decks.Do(name, func() (*mesh.Deck, error) {
		w, h := sz.Dims()
		for quick && w*h > quickDeckCellCap {
			w /= 2
			h /= 2
		}
		base, err := s.LayeredDeck(w, h)
		if err != nil {
			return nil, err
		}
		return &mesh.Deck{Name: name, Mesh: base.Mesh, DetonatorX: base.DetonatorX, DetonatorY: base.DetonatorY}, nil
	})
	return d, err
}

// LayeredDeck returns (and caches) the custom W x H layered deck — the
// deck a WithCustomDeck scenario or a sweep over custom sizes resolves to.
func (s *Store) LayeredDeck(w, h int) (*mesh.Deck, error) {
	d, _, err := s.decks.Do(fmt.Sprintf("layered/%dx%d", w, h), func() (*mesh.Deck, error) {
		return mesh.BuildLayeredDeck(w, h)
	})
	return d, err
}

// Graph returns (and caches) the dual graph of a deck, keyed by the deck's
// content-derived CacheKey.
func (s *Store) Graph(d *mesh.Deck) (*partition.Graph, error) {
	g, _, err := s.graphs.Do(d.CacheKey(), func() (*partition.Graph, error) {
		return partition.FromMesh(d.Mesh), nil
	})
	return g, err
}

// partKey identifies a partition artifact: deck content, algorithm, seed,
// and part count.
func partKey(d *mesh.Deck, pr partition.Partitioner, seed uint64, p int) string {
	return fmt.Sprintf("%s/%s/%d/%d", d.CacheKey(), pr.Name(), seed, p)
}

// Vector returns (and caches) the raw cell-to-part assignment of d under
// pr at p parts. The returned slice is shared — read-only for callers.
func (s *Store) Vector(d *mesh.Deck, pr partition.Partitioner, seed uint64, p int) ([]int, error) {
	vec, _, err := s.vectors.Do(partKey(d, pr, seed, p), func() ([]int, error) {
		return s.partition(d, pr, p)
	})
	return vec, named(d, p, err)
}

// partition runs pr over d's graph: the one place a partition is
// computed. Its error names no deck, since every deck of one content
// shares the run; each caller names its own (see named).
func (s *Store) partition(d *mesh.Deck, pr partition.Partitioner, p int) ([]int, error) {
	g, err := s.Graph(d)
	if err != nil {
		return nil, err
	}
	s.partitionComputes.Add(1)
	return pr.Partition(g, p)
}

// named wraps a partition flight's error with the caller's deck.
func named(d *mesh.Deck, p int, err error) error {
	if err != nil {
		return fmt.Errorf("artifacts: partitioning %s to %d parts: %w", d.Name, p, err)
	}
	return nil
}

// Summary returns (and caches) the partition summary of d under pr at p
// parts, so the quality report, the simulator, and the model all derive
// from one partitioning run. It summarizes the cached Vector when one is
// held; otherwise it partitions and lets the vector go once summarized.
// Vector then Summary partitions once; a Vector call after (or racing)
// a Summary of the same key partitions again, since the summary kept no
// vector.
func (s *Store) Summary(d *mesh.Deck, pr partition.Partitioner, seed uint64, p int) (*mesh.PartitionSummary, error) {
	return s.summary(partKey(d, pr, seed, p), d, pr, p)
}

// summary is Summary under a key the caller already built.
func (s *Store) summary(key string, d *mesh.Deck, pr partition.Partitioner, p int) (*mesh.PartitionSummary, error) {
	sum, _, err := s.sums.Do(key, func() (*mesh.PartitionSummary, error) {
		part, ok := s.vectors.Get(key)
		if !ok {
			var err error
			if part, err = s.partition(d, pr, p); err != nil {
				return nil, err
			}
		}
		return mesh.Summarize(d.Mesh, part, p)
	})
	return sum, named(d, p, err)
}

// Plan returns (and caches) the simulator's exchange plan of the
// partition Summary describes, under the same key: every simulation of
// the partition, on any interconnect, reuses one layout.
func (s *Store) Plan(d *mesh.Deck, pr partition.Partitioner, seed uint64, p int) (*cluster.Plan, error) {
	key := partKey(d, pr, seed, p)
	sum, err := s.summary(key, d, pr, p)
	if err != nil {
		return nil, err
	}
	plan, _, err := s.plans.Do(key, func() (*cluster.Plan, error) {
		return cluster.NewPlan(sum)
	})
	return plan, err
}
