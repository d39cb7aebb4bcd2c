// Package netmodel implements the communication-time models from Section 4
// of the Krak paper.
//
// Point-to-point message time follows Equation (4):
//
//	Tmsg(S) = L(S) + S * TB(S)
//
// where both the start-up cost L and the per-byte cost TB are piecewise
// functions of the message size S in bytes. Collective operations follow
// Equations (8)-(10): messages traverse a binary tree, so a one-to-all
// operation costs log2(P) message times and a synchronizing all-reduce costs
// 2*log2(P) (fan-in plus fan-out).
//
// The package also carries machine presets. The paper's validation platform
// was a 256-node AlphaServer ES45 cluster with a Quadrics QsNet-I fat-tree
// interconnect; QsNetI approximates that network's MPI-level behaviour
// (few-microsecond latency, ~300 MB/s asymptotic bandwidth, an eager/
// rendezvous switch around 4 KiB).
package netmodel

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Segment describes message-time coefficients valid for sizes >= MinBytes
// (until the next segment takes over).
type Segment struct {
	MinBytes int     // first message size (bytes) this segment applies to
	Latency  float64 // L(S): start-up cost in seconds
	PerByte  float64 // TB(S): seconds per byte
}

// Model is a piecewise-linear point-to-point message-time model plus the
// collective patterns built on it. The zero value is unusable; construct
// with New or a preset.
type Model struct {
	name     string
	segments []Segment // sorted by MinBytes, first entry must be MinBytes=0
	topo     Topology  // zero value = flat (the paper's collectives)
}

// New validates and builds a model from segments. Segments may be given in
// any order; one of them must start at 0 bytes.
func New(name string, segments []Segment) (*Model, error) {
	if len(segments) == 0 {
		return nil, errors.New("netmodel: no segments")
	}
	segs := make([]Segment, len(segments))
	copy(segs, segments)
	sort.Slice(segs, func(i, j int) bool { return segs[i].MinBytes < segs[j].MinBytes })
	if segs[0].MinBytes != 0 {
		return nil, fmt.Errorf("netmodel: first segment must start at 0 bytes, got %d", segs[0].MinBytes)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].MinBytes == segs[i-1].MinBytes {
			return nil, fmt.Errorf("netmodel: duplicate segment boundary at %d bytes", segs[i].MinBytes)
		}
	}
	for _, s := range segs {
		if s.Latency < 0 || s.PerByte < 0 {
			return nil, fmt.Errorf("netmodel: negative cost in segment starting at %d bytes", s.MinBytes)
		}
	}
	return &Model{name: name, segments: segs}, nil
}

// MustNew is New but panics on error; for statically known presets.
func MustNew(name string, segments []Segment) *Model {
	m, err := New(name, segments)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the human-readable model name.
func (m *Model) Name() string { return m.name }

// segmentFor returns the segment applicable to a message of size bytes.
func (m *Model) segmentFor(bytes int) Segment {
	if bytes < 0 {
		bytes = 0
	}
	i := sort.Search(len(m.segments), func(i int) bool { return m.segments[i].MinBytes > bytes })
	return m.segments[i-1]
}

// MsgTime returns Tmsg(S) in seconds per Equation (4).
func (m *Model) MsgTime(bytes int) float64 {
	if bytes < 0 {
		bytes = 0
	}
	s := m.segmentFor(bytes)
	return s.Latency + float64(bytes)*s.PerByte
}

// TreeDepth returns ceil(log2(p)), the number of binary-tree levels used by
// the collective models; 0 for p <= 1.
func TreeDepth(p int) int {
	if p <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(p))))
}

// Bcast returns the modeled time for a single one-to-all broadcast of the
// given payload over P processors: log2(P) * Tmsg(S), with each stage
// carrying the topology's distance and contention terms when the model has
// a non-flat Topology (see topology.go).
func (m *Model) Bcast(p, bytes int) float64 {
	return float64(TreeDepth(p)) * m.stageTime(p, bytes)
}

// Allreduce returns the modeled time for a synchronizing all-reduce of the
// given payload: fan-in plus fan-out, 2 * log2(P) * Tmsg(S), stages
// topology-adjusted like Bcast.
func (m *Model) Allreduce(p, bytes int) float64 {
	return 2 * float64(TreeDepth(p)) * m.stageTime(p, bytes)
}

// Gather returns the modeled time for an all-to-one gather per Equation (10):
// log2(P) * Tmsg(S), stages topology-adjusted like Bcast. (The paper models
// the gather as a fan-in of fixed-size messages.)
func (m *Model) Gather(p, bytes int) float64 {
	return float64(TreeDepth(p)) * m.stageTime(p, bytes)
}

// Segments returns a copy of the model's segments (sorted by MinBytes).
func (m *Model) Segments() []Segment {
	out := make([]Segment, len(m.segments))
	copy(out, m.segments)
	return out
}

// QsNetI models the paper's validation network: Quadrics QsNet-I (Elan3) as
// seen by MPI on AlphaServer ES45 nodes. Small messages ride an eager path
// with ~4.7 us latency; large messages switch to rendezvous with higher
// start-up but ~305 MB/s sustained bandwidth.
func QsNetI() *Model {
	const mb = 1e6
	return MustNew("QsNet-I (Elan3) / ES45", []Segment{
		{MinBytes: 0, Latency: 5.2e-6, PerByte: 1 / (190 * mb)},
		{MinBytes: 64, Latency: 5.6e-6, PerByte: 1 / (230 * mb)},
		{MinBytes: 512, Latency: 6.2e-6, PerByte: 1 / (280 * mb)},
		{MinBytes: 4096, Latency: 10.0e-6, PerByte: 1 / (305 * mb)},
		{MinBytes: 65536, Latency: 14.5e-6, PerByte: 1 / (310 * mb)},
	})
}

// GigE models a commodity gigabit-Ethernet cluster of the same era: ~45 us
// MPI latency and ~110 MB/s sustained bandwidth. Used by what-if studies.
func GigE() *Model {
	const mb = 1e6
	return MustNew("Gigabit Ethernet", []Segment{
		{MinBytes: 0, Latency: 45e-6, PerByte: 1 / (70 * mb)},
		{MinBytes: 1024, Latency: 50e-6, PerByte: 1 / (100 * mb)},
		{MinBytes: 16384, Latency: 65e-6, PerByte: 1 / (110 * mb)},
	})
}

// Infiniband models a later-generation low-latency interconnect (~1.3 us,
// ~900 MB/s): the "what would a faster network buy" preset.
func Infiniband() *Model {
	const mb = 1e6
	return MustNew("InfiniBand DDR", []Segment{
		{MinBytes: 0, Latency: 1.3e-6, PerByte: 1 / (700 * mb)},
		{MinBytes: 2048, Latency: 2.0e-6, PerByte: 1 / (900 * mb)},
	})
}
