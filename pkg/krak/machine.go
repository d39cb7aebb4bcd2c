package krak

import (
	"fmt"
	"sync"

	"krak/internal/artifacts"
	"krak/internal/compute"
	"krak/internal/engine"
	"krak/internal/experiments"
	"krak/internal/mesh"
	"krak/internal/netmodel"
)

// SharedArtifacts is a cross-machine artifact cache: decks, dual graphs,
// and partitions resolved by any machine holding it are computed once and
// shared by all of them (see internal/artifacts for the keying that makes
// this safe across differing networks, cost scales, quick modes, and
// seeds). The zero value is not usable; create one with NewSharedArtifacts
// and attach it with WithSharedArtifacts. krak serve hangs one across its
// whole machine cache, so requests against different platforms still share
// every partition.
type SharedArtifacts struct {
	store *artifacts.Store
}

// NewSharedArtifacts returns an empty cross-machine artifact cache.
func NewSharedArtifacts() *SharedArtifacts {
	return &SharedArtifacts{store: artifacts.NewStore()}
}

// ArtifactStats is a point-in-time snapshot of a SharedArtifacts cache's
// activity.
type ArtifactStats struct {
	// PartitionComputes counts partitioner runs: vector requests the
	// in-memory cache could not serve.
	PartitionComputes int64
}

// Stats snapshots the cache's activity counters.
func (sa *SharedArtifacts) Stats() ArtifactStats {
	return ArtifactStats{PartitionComputes: sa.store.PartitionComputes()}
}

// WithSharedArtifacts attaches a cross-machine artifact cache to the
// machine, replacing its private one.
func WithSharedArtifacts(sa *SharedArtifacts) MachineOption {
	return func(m *Machine) error {
		if sa == nil || sa.store == nil {
			return fmt.Errorf("%w: nil shared artifacts", ErrBadOption)
		}
		m.env.Artifacts = sa.store
		return nil
	}
}

// Machine describes the platform predictions and simulations run against:
// the interconnect, the ground-truth computation cost tables, the
// partitioner seed, the measurement repeat count, and how many concurrent
// jobs its worker pool runs (WithParallelism). A Machine memoizes the
// expensive shared artifacts (decks, partitions, calibrations) in
// single-flight caches that concurrent Sessions and Sweeps share safely,
// so reuse one Machine across Sessions whenever the platform is the same.
type Machine struct {
	interconnect string
	name         string
	serialize    bool
	quick        bool
	repeatsSet   bool
	computeScale float64

	topology *netmodel.Topology

	env  *experiments.Env
	pool *engine.Pool

	// featOnce/featEnv lazily build the baseline-rate environment
	// Session.Calibrate extracts fit features in (see featureEnv).
	featOnce sync.Once
	featEnv  *experiments.Env
}

// MachineOption configures NewMachine.
type MachineOption func(*Machine) error

// WithInterconnect selects the network model by name: "qsnet" (the paper's
// QsNet-I), "gige", or "infiniband".
func WithInterconnect(name string) MachineOption {
	return func(m *Machine) error {
		net, err := interconnectByName(name)
		if err != nil {
			return err
		}
		m.interconnect = name
		m.env.Net = net
		return nil
	}
}

// WithNetworkSpec installs a custom piecewise interconnect in place of a
// preset — the option behind machine files' network/segment directives
// and the wire MachineSpec's network field. Invalid specs return
// ErrBadMachineSpec.
func WithNetworkSpec(ns NetworkSpec) MachineOption {
	return func(m *Machine) error {
		net, err := ns.Model()
		if err != nil {
			return err
		}
		m.interconnect = "custom"
		m.env.Net = net
		return nil
	}
}

// WithTopologySpec attaches a physical interconnect topology to the
// machine's network model, refining its collective times with distance
// and bisection-contention terms (machine files' topology directive and
// the wire MachineSpec's topology field). Applied once, after all
// options, so it composes with WithInterconnect and WithNetworkSpec in
// any order. Invalid specs return ErrBadMachineSpec.
func WithTopologySpec(ts TopologySpec) MachineOption {
	return func(m *Machine) error {
		t, err := ts.Topology()
		if err != nil {
			return err
		}
		m.topology = &t
		return nil
	}
}

// WithComputeScale scales the machine's ground-truth computation cost
// tables by f relative to the ES45 baseline: 2 is a processor half as
// fast, 0.5 twice as fast. Calibration fits exactly this factor.
func WithComputeScale(f float64) MachineOption {
	return func(m *Machine) error {
		if !(f > 0) || f > 1e6 {
			return fmt.Errorf("%w: compute scale %g", ErrBadOption, f)
		}
		m.computeScale = f
		return nil
	}
}

// WithName sets the machine's display name (machine files' machine
// directive).
func WithName(name string) MachineOption {
	return func(m *Machine) error {
		m.name = name
		return nil
	}
}

// WithSeed sets the partitioner seed (default 1).
func WithSeed(seed uint64) MachineOption {
	return func(m *Machine) error {
		m.env.Seed = seed
		return nil
	}
}

// WithRepeats sets how many simulated iterations are averaged per
// measurement (default 5).
func WithRepeats(n int) MachineOption {
	return func(m *Machine) error {
		if n <= 0 {
			return fmt.Errorf("%w: repeats %d", ErrBadOption, n)
		}
		m.env.Repeats = n
		m.repeatsSet = true
		return nil
	}
}

// WithSerializedSends disables message overlap in the simulator, mirroring
// the no-overlap accounting of the model's Equation (5).
func WithSerializedSends() MachineOption {
	return func(m *Machine) error {
		m.serialize = true
		return nil
	}
}

// WithQuick scales the standard decks and calibration campaigns down so
// smoke tests and CI stay fast, and lowers the default repeat count to 2
// (an explicit WithRepeats wins regardless of option order).
// Paper-faithful runs leave it off.
func WithQuick() MachineOption {
	return func(m *Machine) error {
		m.quick = true
		m.env.Quick = true
		return nil
	}
}

// WithParallelism bounds the machine's worker pool to n concurrent jobs.
// The pool drives Session.Sweep, Session.Experiments, and the row sweeps
// inside individual experiments; results are byte-identical at every n.
// The default (without this option) is runtime.GOMAXPROCS, i.e. as wide as
// the hardware allows; n = 1 forces fully serial execution.
func WithParallelism(n int) MachineOption {
	return func(m *Machine) error {
		if n <= 0 {
			return fmt.Errorf("%w: parallelism %d", ErrBadOption, n)
		}
		m.pool = engine.New(n)
		return nil
	}
}

func interconnectByName(name string) (*netmodel.Model, error) {
	switch name {
	case "qsnet":
		return netmodel.QsNetI(), nil
	case "gige":
		return netmodel.GigE(), nil
	case "infiniband":
		return netmodel.Infiniband(), nil
	}
	return nil, fmt.Errorf("%w: %q (qsnet|gige|infiniband)", ErrUnknownInterconnect, name)
}

// NewMachine builds a machine; with no options it is the paper's
// QsNet-I / ES45 cluster.
func NewMachine(opts ...MachineOption) (*Machine, error) {
	m := &Machine{
		interconnect: "qsnet",
		env:          experiments.NewEnv(),
	}
	for _, opt := range opts {
		if err := opt(m); err != nil {
			return nil, err
		}
	}
	if m.quick && !m.repeatsSet {
		m.env.Repeats = 2
	}
	if m.topology != nil {
		// Applied once, after all options, so a later WithInterconnect or
		// WithNetworkSpec cannot silently drop the topology.
		net, err := m.env.Net.WithTopology(*m.topology)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadMachineSpec, err)
		}
		m.env.Net = net
	}
	if m.computeScale == 0 {
		m.computeScale = 1
	}
	if m.computeScale != 1 {
		// Applied once, after all options, so option order cannot compound
		// the scale.
		m.env.Costs = m.env.Costs.Scaled(m.computeScale)
	}
	if m.pool == nil {
		m.pool = engine.New(0) // GOMAXPROCS
	}
	m.env.Pool = m.pool
	return m, nil
}

func mustMachine(opts ...MachineOption) *Machine {
	m, err := NewMachine(opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// QsNetCluster is the paper's validation platform: AlphaServer ES45 nodes
// on Quadrics QsNet-I, with the ES45 ground-truth cost tables.
func QsNetCluster() *Machine { return mustMachine() }

// GigECluster is the commodity gigabit-Ethernet what-if platform.
func GigECluster() *Machine { return mustMachine(WithInterconnect("gige")) }

// InfinibandCluster is the low-latency what-if platform.
func InfinibandCluster() *Machine { return mustMachine(WithInterconnect("infiniband")) }

// Interconnect returns the configured interconnect's short name
// ("qsnet", "gige", "infiniband").
func (m *Machine) Interconnect() string { return m.interconnect }

// NetworkName returns the network model's descriptive name, e.g.
// "QsNet-I (Elan3) / ES45".
func (m *Machine) NetworkName() string { return m.env.Net.Name() }

// Seed returns the partitioner seed.
func (m *Machine) Seed() uint64 { return m.env.Seed }

// Repeats returns the measurement repeat count.
func (m *Machine) Repeats() int {
	if m.env.Repeats <= 0 {
		return 5
	}
	return m.env.Repeats
}

// Quick reports whether the machine is in scaled-down mode.
func (m *Machine) Quick() bool { return m.quick }

// Parallelism returns the worker-pool width Sweep and Experiments use.
func (m *Machine) Parallelism() int { return m.pool.Workers() }

// Name returns the machine's display name ("" unless set by WithName or
// a machine file).
func (m *Machine) Name() string { return m.name }

// Topology describes the machine's interconnect topology, e.g. "flat"
// (the default), "fat-tree radix 36", "8x8x8 torus".
func (m *Machine) Topology() string {
	if m.topology == nil {
		return "flat"
	}
	return m.topology.String()
}

// ComputeScale returns the machine's compute cost multiplier relative to
// the ES45 baseline (1 unless WithComputeScale changed it).
func (m *Machine) ComputeScale() float64 { return m.computeScale }

// featureEnv returns the baseline-rate environment Session.Calibrate
// computes fit features in: the reference ES45 cost tables regardless of
// this machine's compute scale or network, with the machine's seed,
// quick mode, and repeat count, so feature decks line up with the decks
// the observations name. Built once and memoized.
func (m *Machine) featureEnv() *experiments.Env {
	m.featOnce.Do(func() {
		e := experiments.NewEnv()
		e.Seed = m.env.Seed
		e.Quick = m.env.Quick
		e.Repeats = m.env.Repeats
		// Share the machine's artifact store: decks and partitions depend
		// only on keys both environments agree on (size, quick, seed), so
		// calibration features reuse the machine's cached partitions.
		e.Artifacts = m.env.Store()
		m.featEnv = e
	})
	return m.featEnv
}

// deckCalibration resolves the §3.1 least-squares deck calibration,
// memoized per (deck, campaign) pair in the environment's single-flight
// cache.
func (m *Machine) deckCalibration(d *mesh.Deck, calPEs []int) (*compute.Calibrated, error) {
	cal, err := m.env.DeckCalibration(d, calPEs)
	if err != nil {
		return nil, modelErr("deck calibration", err)
	}
	return cal, nil
}
