// Package phases encodes the structure of a Krak iteration as the paper
// describes it: the 15 phases of Table 1 with their synchronization points
// and communication actions, the collective-operation schedule of Table 4,
// and the boundary-exchange message rules of §4.1 (Table 3) and ghost-node
// update rules of §4.2.
//
// Both the analytic performance model (internal/core) and the cluster
// simulator (internal/cluster) consume this package, which guarantees the
// two sides of every validation experiment agree on what an iteration *is*
// and differ only in how they account for its cost.
package phases

import "krak/internal/mesh"

// Count is the number of phases in a Krak iteration (Table 1).
const Count = 15

// BytesPerFaceWord is the payload contribution of one face to a boundary-
// exchange message: 12 bytes per face (§4.1). Ghost nodes touching more than
// one material also contribute 12 bytes to the first two messages of a
// material's exchange step.
const BytesPerFaceWord = 12

// MessagesPerExchangeStep is the number of messages exchanged with each
// neighbor per material step (and in the final step) of a boundary exchange.
const MessagesPerExchangeStep = 6

// Phase describes one phase of the iteration.
type Phase struct {
	// Number is the 1-based phase number from Table 1.
	Number int

	// Action is Table 1's description.
	Action string

	// SyncPoints is the number of global reductions that close the phase
	// (Table 1's "Sync Points" column).
	SyncPoints int

	// BcastBytes lists the payloads of the broadcasts issued in this phase.
	BcastBytes []int

	// AllreduceBytes lists the payloads of the phase's synchronization
	// reductions; its length always equals SyncPoints.
	AllreduceBytes []int

	// GatherBytes lists the payloads of gathers issued in this phase.
	GatherBytes []int

	// BoundaryExchange marks the phase as performing the §4.1 boundary
	// exchange.
	BoundaryExchange bool

	// GhostUpdateBytes is the number of bytes transferred per ghost node in
	// this phase (0 when the phase performs no ghost-node update).
	GhostUpdateBytes int

	// MaterialDependent marks phases whose per-cell computation cost varies
	// with cell material (Figure 2: "the time required for certain phases,
	// for instance phase 14, is material dependent").
	MaterialDependent bool
}

// HasPointToPoint reports whether the phase exchanges point-to-point
// messages with neighbors.
func (p Phase) HasPointToPoint() bool {
	return p.BoundaryExchange || p.GhostUpdateBytes > 0
}

// table is the Table 1 phase list. Allreduce payload sizes are assigned so
// that the per-iteration totals match Table 4 exactly: 9 four-byte and 13
// eight-byte all-reduces, 3+3 broadcasts, and one 32-byte gather.
var table = [Count]Phase{
	{Number: 1, Action: "Broadcast (4 bytes, 8 bytes)", SyncPoints: 2,
		BcastBytes: []int{4, 8}, AllreduceBytes: []int{4, 8}},
	{Number: 2, Action: "Bcast (4 bytes, 8 bytes); Boundary exchange; Gather (32 bytes)", SyncPoints: 1,
		BcastBytes: []int{4, 8}, AllreduceBytes: []int{8}, GatherBytes: []int{32},
		BoundaryExchange: true, MaterialDependent: true},
	{Number: 3, Action: "Computation only", SyncPoints: 3,
		AllreduceBytes: []int{4, 4, 8}},
	{Number: 4, Action: "Ghost node updates (8 bytes)", SyncPoints: 1,
		AllreduceBytes: []int{8}, GhostUpdateBytes: 8},
	{Number: 5, Action: "Ghost node updates (16 bytes)", SyncPoints: 1,
		AllreduceBytes: []int{8}, GhostUpdateBytes: 16, MaterialDependent: true},
	{Number: 6, Action: "Computation only", SyncPoints: 3,
		AllreduceBytes: []int{4, 4, 8}},
	{Number: 7, Action: "Ghost node updates (16 bytes)", SyncPoints: 1,
		AllreduceBytes: []int{8}, GhostUpdateBytes: 16, MaterialDependent: true},
	{Number: 8, Action: "Computation only", SyncPoints: 1,
		AllreduceBytes: []int{4}},
	{Number: 9, Action: "Computation only", SyncPoints: 1,
		AllreduceBytes: []int{8}},
	{Number: 10, Action: "Computation only", SyncPoints: 1,
		AllreduceBytes: []int{8}},
	{Number: 11, Action: "Computation only", SyncPoints: 2,
		AllreduceBytes: []int{4, 8}},
	{Number: 12, Action: "Computation only", SyncPoints: 1,
		AllreduceBytes: []int{8}, MaterialDependent: true},
	{Number: 13, Action: "Computation only", SyncPoints: 1,
		AllreduceBytes: []int{4}},
	{Number: 14, Action: "Computation only", SyncPoints: 1,
		AllreduceBytes: []int{8}, MaterialDependent: true},
	{Number: 15, Action: "Broadcast (4 bytes, 8 bytes)", SyncPoints: 2,
		BcastBytes: []int{4, 8}, AllreduceBytes: []int{4, 8}},
}

// Table1 returns the full phase list in order. The returned slice is freshly
// allocated; the phases' internal slices are shared and must not be mutated.
func Table1() []Phase {
	out := make([]Phase, Count)
	copy(out, table[:])
	return out
}

// All returns the phase list backed by the package's shared table — no
// allocation, STRICTLY read-only: writing through the returned slice (or
// through the inner slices Table1 also shares) corrupts the process-global
// phase definitions and with them every determinism guarantee downstream.
// Hot paths (the cluster simulator's per-iteration loop) use this instead
// of Table1; anything that wants to modify phases must copy.
func All() []Phase { return table[:] }

// CollectiveTotals aggregates the per-iteration collective schedule, i.e.
// reconstructs Table 4 from Table 1.
type CollectiveTotals struct {
	BcastBySize     map[int]int // payload bytes -> count per iteration
	AllreduceBySize map[int]int
	GatherBySize    map[int]int
}

// Table4 computes the per-iteration collective totals from the phase table.
func Table4() CollectiveTotals {
	t := CollectiveTotals{
		BcastBySize:     map[int]int{},
		AllreduceBySize: map[int]int{},
		GatherBySize:    map[int]int{},
	}
	for _, p := range table {
		for _, b := range p.BcastBytes {
			t.BcastBySize[b]++
		}
		for _, b := range p.AllreduceBytes {
			t.AllreduceBySize[b]++
		}
		for _, b := range p.GatherBytes {
			t.GatherBySize[b]++
		}
	}
	return t
}

// Message is one point-to-point message in a boundary exchange or ghost
// update, described by its payload size.
type Message struct {
	Bytes int
	// Step labels the exchange step the message belongss to: the exchange
	// group index for per-material steps, or -1 for the final all-materials
	// step and for ghost updates.
	Step int
}

// BoundaryExchangeMessages enumerates the messages one processor sends to a
// single neighbor during a boundary exchange, per §4.1 and Table 3:
//
//   - one step per exchange group present on the shared boundary (identical
//     materials combined), each of six messages: the first two carry
//     12 bytes per face of that group plus 12 bytes per multi-material ghost
//     node touching the group, the remaining four carry 12 bytes per face;
//   - one final step of six messages of 12 bytes per face regardless of
//     material.
//
// Groups with zero faces on the boundary contribute no messages.
func BoundaryExchangeMessages(b *mesh.PairBoundary) []Message {
	return AppendBoundaryExchangeMessages(nil, b)
}

// AppendBoundaryExchangeMessages appends the boundary-exchange messages to
// msgs and returns the extended slice, letting callers reuse one buffer
// across boundaries instead of allocating per pair.
func AppendBoundaryExchangeMessages(msgs []Message, b *mesh.PairBoundary) []Message {
	for g := 0; g < mesh.NumExchangeGroups; g++ {
		faces := b.FacesByGroup[g]
		if faces == 0 {
			continue
		}
		first := BytesPerFaceWord * (faces + b.MultiGroupGhostsByGroup[g])
		rest := BytesPerFaceWord * faces
		msgs = append(msgs,
			Message{Bytes: first, Step: g},
			Message{Bytes: first, Step: g},
			Message{Bytes: rest, Step: g},
			Message{Bytes: rest, Step: g},
			Message{Bytes: rest, Step: g},
			Message{Bytes: rest, Step: g},
		)
	}
	if b.TotalFaces > 0 {
		all := BytesPerFaceWord * b.TotalFaces
		for i := 0; i < MessagesPerExchangeStep; i++ {
			msgs = append(msgs, Message{Bytes: all, Step: -1})
		}
	}
	return msgs
}

// AppendGhostUpdateMessages appends to msgs the messages one processor pe
// exchanges with a single neighbor in a ghost-node-update phase (§4.2):
// one message for the locally owned ghost nodes and one for the remote
// ones, at bytesPerNode each. It returns the extended slice (see
// AppendBoundaryExchangeMessages).
func AppendGhostUpdateMessages(msgs []Message, b *mesh.PairBoundary, pe, bytesPerNode int) []Message {
	return append(msgs,
		Message{Bytes: bytesPerNode * b.Owned(pe), Step: -1},
		Message{Bytes: bytesPerNode * b.Remote(pe), Step: -1},
	)
}
