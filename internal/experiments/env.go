// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (phase structure) through Table 6 (general-model
// validation) and Figures 1 through 5, plus the ablation studies
// docs/ARCHITECTURE.md calls out. Each experiment pairs the cluster
// simulator's "measured" times with the analytic model's predictions,
// exactly as the paper pairs its ES45 measurements with its model.
//
// Experiments run either one at a time (Experiment.Run) or as a batch on a
// worker pool (RunAll); either way the expensive shared artifacts — decks,
// partitions, calibrations — are memoized in the Env through single-flight
// caches, so concurrent experiments share setup instead of recomputing it
// and parallel output stays byte-identical to serial output.
package experiments

import (
	"fmt"
	"sync"

	"krak/internal/artifacts"
	"krak/internal/cluster"
	"krak/internal/compute"
	"krak/internal/core"
	"krak/internal/engine"
	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/partition"
	"krak/internal/phases"
)

// Env carries the machine configuration and memoizes the expensive
// artifacts (decks, partitions, calibrations) that experiments share. The
// caches are single-flight: when parallel jobs request the same artifact,
// one computes it and the rest wait, so an Env is safe to share across any
// number of concurrent experiment runs. An Env must not be copied after
// first use.
type Env struct {
	// Net is the interconnect model (default QsNet-I).
	Net *netmodel.Model

	// Costs is the ground-truth computation table (default ES45 with 3%
	// noise).
	Costs *compute.TruthTable

	// Seed drives the partitioner.
	Seed uint64

	// Repeats is the number of measured iterations averaged per data point
	// (default 5).
	Repeats int

	// Quick shrinks the heavyweight experiments (smaller decks, fewer
	// processor counts) so benchmarks and smoke tests stay fast. The
	// paper-faithful configuration leaves it false.
	Quick bool

	// Pool bounds the row-level parallelism inside sweep-shaped
	// experiments (Table 5, Table 6, Figure 5); nil evaluates rows
	// serially. RunAll additionally parallelizes across experiments with
	// its own pool argument.
	Pool *engine.Pool

	// Artifacts optionally points at a shared cross-environment artifact
	// store (decks, graphs, partitions — see internal/artifacts). Nil
	// means the Env lazily creates a private store on first use. Sharing
	// is safe across environments with different cost tables or networks:
	// everything the store caches depends only on deck identity, quick
	// mode, and the partitioner seed, all of which are in its keys.
	Artifacts *artifacts.Store
	artOnce   sync.Once

	// contrived/deckCals stay per-Env: calibrations depend on the cost
	// tables and repeat count, which the artifact store does not key.
	contrived engine.Cache[struct{}, *compute.Calibrated]
	deckCals  engine.Cache[string, *compute.Calibrated]
}

// Store returns the Env's artifact store, creating a private one if none
// was injected.
func (e *Env) Store() *artifacts.Store {
	e.artOnce.Do(func() {
		if e.Artifacts == nil {
			e.Artifacts = artifacts.NewStore()
		}
	})
	return e.Artifacts
}

// NewEnv returns a paper-faithful environment.
func NewEnv() *Env {
	return &Env{
		Net:     netmodel.QsNetI(),
		Costs:   compute.ES45(),
		Seed:    1,
		Repeats: 5,
	}
}

// NewQuickEnv returns a scaled-down environment for benchmarks and tests.
//
//krakcheck:ignore deadexport bench/krakbench calls it, a separate module that krakcheck does not load
func NewQuickEnv() *Env {
	e := NewEnv()
	e.Quick = true
	e.Repeats = 2
	return e
}

func (e *Env) repeats() int {
	if e.Repeats <= 0 {
		return 5
	}
	return e.Repeats
}

// pool returns the row-level worker pool, serial when unset.
func (e *Env) pool() *engine.Pool {
	if e.Pool != nil {
		return e.Pool
	}
	return engine.Serial()
}

// clusterConfig builds the simulator configuration.
func (e *Env) clusterConfig() cluster.Config {
	return cluster.Config{Net: e.Net, Costs: e.Costs}
}

// Deck returns (and caches) a standard deck, shrunk in Quick mode.
func (e *Env) Deck(s mesh.StandardSize) (*mesh.Deck, error) {
	return e.Store().StandardDeck(s, e.Quick)
}

// CustomDeck returns (and caches) the custom W x H layered deck.
func (e *Env) CustomDeck(w, h int) (*mesh.Deck, error) {
	return e.Store().LayeredDeck(w, h)
}

// Graph returns (and caches) the dual graph of a deck.
func (e *Env) Graph(d *mesh.Deck) (*partition.Graph, error) {
	return e.Store().Graph(d)
}

// Partition returns (and caches) the multilevel partition summary of a deck
// at p processors. Distinct (deck, p) keys partition concurrently;
// duplicate requests wait for the one in flight. The key includes the
// deck's content-derived CacheKey, so two decks sharing a name (possible
// with parsed decks) can never serve each other's partitions.
func (e *Env) Partition(d *mesh.Deck, p int) (*mesh.PartitionSummary, error) {
	return e.Store().Summary(d, partition.NewMultilevel(e.Seed), e.Seed, p)
}

// SummaryFor returns (and caches) the partition summary of a deck under an
// arbitrary partitioner — the façade's non-default algorithms route here
// so sweeps and repeated sessions share their partitions too. pr must be
// seeded from this Env's Seed.
func (e *Env) SummaryFor(d *mesh.Deck, pr partition.Partitioner, p int) (*mesh.PartitionSummary, error) {
	return e.Store().Summary(d, pr, e.Seed, p)
}

// PartitionVector returns (and caches) the raw multilevel cell-to-PE
// assignment (the Figure 1 visualization, the façade's Partition report,
// and parallel hydro runs all read it). Shared storage — callers must not
// mutate the returned slice.
func (e *Env) PartitionVector(d *mesh.Deck, p int) ([]int, error) {
	return e.Store().Vector(d, partition.NewMultilevel(e.Seed), e.Seed, p)
}

// VectorFor is PartitionVector for an arbitrary partitioner seeded from
// this Env's Seed.
func (e *Env) VectorFor(d *mesh.Deck, pr partition.Partitioner, p int) ([]int, error) {
	return e.Store().Vector(d, pr, e.Seed, p)
}

// Measure runs the simulator and returns the mean iteration time.
func (e *Env) Measure(sum *mesh.PartitionSummary) (float64, error) {
	_, mean, err := cluster.SimulateIterations(sum, e.clusterConfig(), e.repeats())
	return mean, err
}

// MeasureResult runs a single simulated iteration and returns its detailed
// result (noise stream 0).
func (e *Env) MeasureResult(sum *mesh.PartitionSummary) (*cluster.Result, error) {
	return cluster.Simulate(sum, e.clusterConfig())
}

// Profiler adapts the cluster simulator into the calibration interface: a
// "No MPI" computation profile averaged over the measurement repeats. It
// reads only the simulator's compute times, so it fills those directly
// and never plays out the network.
func (e *Env) Profiler() core.ProfileFunc {
	costs := e.Costs
	reps := e.repeats()
	return func(sum *mesh.PartitionSummary) ([phases.Count][]float64, error) {
		var out [phases.Count][]float64
		for ph := 0; ph < phases.Count; ph++ {
			out[ph] = make([]float64, sum.P)
		}
		var comp [phases.Count][]float64
		for it := 0; it < reps; it++ {
			cluster.FillComputeTimes(&comp, sum, costs, it)
			for ph := 0; ph < phases.Count; ph++ {
				for pe := 0; pe < sum.P; pe++ {
					out[ph][pe] += comp[ph][pe] / float64(reps)
				}
			}
		}
		return out, nil
	}
}

// ContrivedCalibration returns (and caches) the §3.1 contrived-grid
// calibration backed by the simulator.
func (e *Env) ContrivedCalibration() (*compute.Calibrated, error) {
	v, _, err := e.contrived.Do(struct{}{}, func() (*compute.Calibrated, error) {
		cal := &core.Calibrator{Profile: e.Profiler()}
		sizes := core.DefaultContrivedSizes()
		if e.Quick {
			sizes = sizes[:14] // up to 8,192 cells per PE
		}
		return cal.Contrived(sizes)
	})
	return v, err
}

// DeckCalibration returns (and caches) the §3.1 least-squares calibration
// over campaigns of the given deck at the given processor counts, keyed
// by the deck's content-derived CacheKey (see Partition).
func (e *Env) DeckCalibration(d *mesh.Deck, calPs []int) (*compute.Calibrated, error) {
	key := d.CacheKey()
	for _, p := range calPs {
		key += fmt.Sprintf("/%d", p)
	}
	v, _, err := e.deckCals.Do(key, func() (*compute.Calibrated, error) {
		var samples []core.DeckSample
		for _, p := range calPs {
			sum, err := e.Partition(d, p)
			if err != nil {
				return nil, err
			}
			samples = append(samples, core.DeckSample{Summary: sum})
		}
		cal := &core.Calibrator{Profile: e.Profiler()}
		return cal.FromDeck(samples)
	})
	return v, err
}
