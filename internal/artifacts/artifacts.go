// Package artifacts is the cross-layer cache of the expensive derived
// objects every evaluation path needs: built decks, their dual graphs, and
// partition vectors/summaries. The experiments environment, the pkg/krak
// façade (Predict/Simulate/Sweep/RunHydro/Partition), and the HTTP server
// all resolve these through one Store, so a deck is built once, its graph
// is extracted once, and a (deck, partitioner, seed, p) partition is
// computed once — no matter which layer asks first or how many concurrent
// jobs ask at the same time.
//
// Every cache is an unbounded engine.Cache: duplicate concurrent requests
// coalesce onto one computation, a failed computation is not kept (the
// next request retries it), and results are immutable by convention —
// callers must never mutate a returned deck, graph, vector, or summary.
// Partition identity is (deck content, partitioner name, seed, parts):
// the partitioner's Name() must pin the algorithm and the caller must
// pass the same seed the partitioner was built with, which is what keys
// cached results to the machine configuration that produced them. The
// Store lives in memory; DiskCache (disk.go) is the on-disk store the
// server's machine registry keeps its history versions in.
package artifacts

import (
	"fmt"
	"sync/atomic"

	"krak/internal/engine"
	"krak/internal/mesh"
	"krak/internal/partition"
)

// Store memoizes decks, graphs, and partitions in single-flight caches.
// The zero value is ready to use; a Store must not be copied after first
// use. One Store may back any number of environments/machines whose
// artifact-relevant configuration (deck quick-scaling, partitioner seeds —
// both part of the cache keys) differs: the keys keep them apart while
// letting everything shareable be shared.
type Store struct {
	decks   engine.Cache[string, *mesh.Deck]
	graphs  engine.Cache[string, *partition.Graph]
	vectors engine.Cache[string, []int]
	sums    engine.Cache[string, *mesh.PartitionSummary]

	// partitionComputes counts actual partitioner runs — vectors cache
	// misses. The serving metrics expose it.
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
// quick cap when quick is set. Quick and full-size variants cache under
// distinct keys.
func (s *Store) StandardDeck(sz mesh.StandardSize, quick bool) (*mesh.Deck, error) {
	key := sz.String()
	if quick {
		key += "/quick"
	}
	d, _, err := s.decks.Do(key, func() (*mesh.Deck, error) {
		if quick {
			w, h := sz.Dims()
			for w*h > quickDeckCellCap {
				w /= 2
				h /= 2
			}
			d, err := mesh.BuildLayeredDeck(w, h)
			if err != nil {
				return nil, err
			}
			d.Name = sz.String() + "-quick"
			return d, nil
		}
		return mesh.BuildStandardDeck(sz)
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
	key := partKey(d, pr, seed, p)
	vec, _, err := s.vectors.Do(key, func() ([]int, error) {
		g, err := s.Graph(d)
		if err != nil {
			return nil, err
		}
		s.partitionComputes.Add(1)
		part, err := pr.Partition(g, p)
		if err != nil {
			return nil, fmt.Errorf("artifacts: partitioning %s to %d parts: %w", d.Name, p, err)
		}
		return part, nil
	})
	return vec, err
}

// Summary returns (and caches) the partition summary of d under pr at p
// parts, building on the cached Vector so the quality report, the
// simulator, and the model all derive from one partitioning run.
func (s *Store) Summary(d *mesh.Deck, pr partition.Partitioner, seed uint64, p int) (*mesh.PartitionSummary, error) {
	sum, _, err := s.sums.Do(partKey(d, pr, seed, p), func() (*mesh.PartitionSummary, error) {
		part, err := s.Vector(d, pr, seed, p)
		if err != nil {
			return nil, err
		}
		return mesh.Summarize(d.Mesh, part, p)
	})
	return sum, err
}
