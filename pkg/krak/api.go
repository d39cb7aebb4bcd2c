package krak

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// This file defines the wire types of the `krak serve` HTTP API — the
// request bodies clients POST and the helpers that turn them into
// Machines and Scenarios — and RenderJSON, the one renderer of every
// successful body. They live in pkg/krak (not internal/server) so
// clients and the server share one schema: a Go client builds a
// PredictRequest, the server decodes the same struct, and the response
// is a Result whose JSON is byte-identical to `krak predict --json`
// (a Result stamps ResultSchema; Result.UnmarshalJSON rejects anything
// else with ErrSchema).

// Every answer type (Result, SweepResult, CalibrationResult,
// MachineHistory) stamps its own encodings: its first field, Schema, is
// a zero-size value whose MarshalText is the type's schema constant, so
// encoding/json writes "schema" first and a nested answer encodes in
// the same pass as its parent. Decoding goes through each type's
// UnmarshalJSON, which reads the stamp as a string and hands it to
// checkStamp.

// checkStamp finishes an UnmarshalJSON: err is the decode's error and
// got the stamp it read, which must be want. what names the payload.
func checkStamp(err error, got, want, what string) error {
	if err != nil {
		return fmt.Errorf("%w: decoding %s: %w", ErrSchema, what, err)
	}
	if got != want {
		return fmt.Errorf("%w: got %q, want %q", ErrSchema, got, want)
	}
	return nil
}

// RenderJSON renders v as the serving contract's bytes: the output of
// json.MarshalIndent(v, "", "  ") plus a trailing newline. Every
// `--json` the CLI prints and every successful body `krak serve`
// answers goes through it, which is what makes the two byte-identical.
// It encodes once, stamps included, and the linear indenter then runs
// twice, once to size the output and once to write it, so a cached
// body carries no slack.
func RenderJSON(v any) ([]byte, error) {
	compact, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("%w: rendering JSON: %w", ErrSchema, err)
	}
	out := make([]byte, indent(nil, compact))
	indent(out, compact)
	return out, nil
}

// indent writes compact, indented as json.Indent(dst, compact, "", "  ")
// would and followed by a newline, into out, and returns the length of
// the result; a nil out only counts. compact must be json.Marshal
// output: no whitespace outside strings, and every string well formed,
// so the structural bytes are the ones outside strings. Runs between
// them are copied whole.
func indent(out, compact []byte) int {
	n, last, depth := 0, 0, 0
	// flush writes compact[last:end] and then sep: a space after a
	// colon, or a newline and depth levels of indentation.
	flush := func(end int, sep byte) {
		size := end - last + 1
		if sep == '\n' {
			size += 2 * depth
		}
		if out != nil {
			k := n + copy(out[n:], compact[last:end])
			out[k] = sep
			for k++; k < n+size; k++ {
				out[k] = ' '
			}
		}
		n, last = n+size, end
	}
	for i := 0; i < len(compact); i++ {
		switch c := compact[i]; c {
		case '"':
			i = stringEnd(compact, i)
		case ':':
			flush(i+1, ' ')
		case ',':
			flush(i+1, '\n')
		case '{', '[':
			// An empty {} or [] stays on one line; c+2 is its closer.
			if compact[i+1] == c+2 {
				i++
			} else {
				depth++
				flush(i+1, '\n')
			}
		case '}', ']':
			depth--
			flush(i, '\n')
		}
	}
	flush(len(compact), '\n')
	return n
}

// stringEnd returns the index of the quote that closes the string
// opening at compact[open]. A backslash escapes one byte: \uXXXX
// continues in hex digits, which are never quotes.
func stringEnd(compact []byte, open int) int {
	for i := open + 1; ; i++ {
		switch compact[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
}

// MachineSpec is the wire and file form of a Machine: every field is
// optional and the zero value means the paper's default platform
// (QsNet-I, seed 1, full-size decks). Beyond the presets, a spec can
// describe an arbitrary cluster: a custom piecewise Network, a
// ComputeScale relative to the baseline cost tables, or a whole
// machine file embedded in File.
type MachineSpec struct {
	// Name is an optional display name (machine files' machine directive).
	Name string `json:"name,omitempty"`

	// Interconnect selects the network model: "qsnet" (default), "gige",
	// or "infiniband". Ignored when Network is set.
	Interconnect string `json:"interconnect,omitempty"`

	// Network, when non-nil, is a custom piecewise interconnect used in
	// place of an Interconnect preset — the form `krak calibrate` emits
	// and machine files' network/segment directives parse into.
	Network *NetworkSpec `json:"network,omitempty"`

	// Topology, when non-nil and not flat, refines the collective models
	// with the interconnect's physical shape (machine files' topology
	// directive). Orthogonal to Interconnect/Network: those set the
	// point-to-point cost tables, this sets the distance and contention
	// terms collectives pay on top.
	Topology *TopologySpec `json:"topology,omitempty"`

	// ComputeScale multiplies the machine's computation cost tables
	// relative to the ES45 baseline; 0 means 1 (the baseline rate).
	ComputeScale float64 `json:"compute_scale,omitempty"`

	// Seed is the partitioner seed; 0 means the default (1).
	Seed uint64 `json:"seed,omitempty"`

	// Repeats is the measurement repeat count; 0 means the machine
	// default (5, or 2 under Quick).
	Repeats int `json:"repeats,omitempty"`

	// Quick selects scaled-down decks and calibrations, mirroring the
	// CLI's -quick flag.
	Quick bool `json:"quick,omitempty"`

	// SerializeSends disables message overlap in the simulator.
	SerializeSends bool `json:"serialize_sends,omitempty"`

	// File, when non-empty, is the text of a machine file (the
	// ParseMachineFile format); the spec's other fields override the
	// file's directives. Resolve it with Resolved before comparing or
	// fingerprinting specs.
	File string `json:"file,omitempty"`
}

// Normalized returns the spec with defaults filled in, so two specs that
// mean the same machine compare equal — the identity a serving cache
// keys on. A spec with an embedded File is returned unchanged: filling
// defaults before Resolved runs would turn them into overrides of the
// file's directives.
func (ms MachineSpec) Normalized() MachineSpec {
	if ms.File != "" {
		return ms
	}
	if ms.Network != nil {
		// A custom network supersedes the preset entirely; clearing the
		// ignored Interconnect keeps two spellings of the same platform on
		// one fingerprint (and one slot of the serving machine cap).
		ms.Interconnect = ""
		if ms.Network.Name == "" {
			n := *ms.Network
			n.Name = "custom"
			ms.Network = &n
		}
	} else if ms.Interconnect == "" {
		ms.Interconnect = "qsnet"
	}
	if ms.Topology != nil {
		ms.Topology = ms.Topology.normalized()
	}
	if ms.Seed == 0 {
		ms.Seed = 1
	}
	if ms.ComputeScale == 0 {
		ms.ComputeScale = 1
	}
	return ms
}

// Resolved expands an embedded machine file: the File text is parsed
// (errors wrap ErrBadMachineSpec) and the spec's own explicitly-set
// fields override the file's directives, with an explicit Interconnect
// also discarding the file's custom network. Specs without a File are
// returned unchanged.
func (ms MachineSpec) Resolved() (MachineSpec, error) {
	if ms.File == "" {
		return ms, nil
	}
	base, err := ParseMachineFile([]byte(ms.File))
	if err != nil {
		return MachineSpec{}, err
	}
	if ms.Name != "" {
		base.Name = ms.Name
	}
	if ms.Interconnect != "" {
		base.Interconnect = ms.Interconnect
		base.Network = nil
	}
	if ms.Network != nil {
		base.Network = ms.Network
	}
	if ms.Topology != nil {
		base.Topology = ms.Topology
	}
	if ms.ComputeScale != 0 {
		base.ComputeScale = ms.ComputeScale
	}
	if ms.Seed != 0 {
		base.Seed = ms.Seed
	}
	if ms.Repeats != 0 {
		base.Repeats = ms.Repeats
	}
	if ms.Quick {
		base.Quick = true
	}
	if ms.SerializeSends {
		base.SerializeSends = true
	}
	return base, nil
}

// Fingerprint returns a content-derived identity of the spec: a hash of
// its normalized JSON form, stable across field ordering and default
// spelling, and blind to the cosmetic display Name (a rename is the
// same platform). The serving layer keys its machine cache on it, which
// is what lets calibrated and file-defined machines share the capped
// cache with the presets. Resolve embedded Files first; an unresolved
// File is fingerprinted as opaque text.
func (ms MachineSpec) Fingerprint() string {
	n := ms.Normalized()
	n.Name = ""
	b, err := json.Marshal(n)
	if err != nil {
		// Only non-finite floats (NaN scale, segment, or topology values —
		// already invalid as a machine) can fail Marshal; fall back to a
		// verbose but still deterministic pointer-free rendering rather
		// than panic (%#v on the struct itself would print the Network and
		// Topology pointers' addresses).
		var net NetworkSpec
		if n.Network != nil {
			net = *n.Network
		}
		var topo TopologySpec
		if n.Topology != nil {
			topo = *n.Topology
		}
		n.Network, n.Topology = nil, nil
		b = []byte(fmt.Sprintf("%#v|%#v|%#v", n, net, topo))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// Options translates the spec into NewMachine options. Validation (an
// unknown interconnect, a malformed custom network or embedded file, a
// non-positive repeat count) surfaces from NewMachine as the usual
// typed errors.
func (ms MachineSpec) Options() []MachineOption {
	if ms.File != "" {
		r, err := ms.Resolved()
		if err != nil {
			return []MachineOption{func(*Machine) error { return err }}
		}
		return r.Options()
	}
	ms = ms.Normalized()
	var opts []MachineOption
	if ms.Network != nil {
		opts = append(opts, WithNetworkSpec(*ms.Network))
	} else {
		opts = append(opts, WithInterconnect(ms.Interconnect))
	}
	if ms.Topology != nil {
		opts = append(opts, WithTopologySpec(*ms.Topology))
	}
	opts = append(opts, WithSeed(ms.Seed))
	if ms.Name != "" {
		opts = append(opts, WithName(ms.Name))
	}
	if ms.ComputeScale != 1 {
		opts = append(opts, WithComputeScale(ms.ComputeScale))
	}
	if ms.Quick {
		opts = append(opts, WithQuick())
	}
	if ms.Repeats != 0 {
		opts = append(opts, WithRepeats(ms.Repeats))
	}
	if ms.SerializeSends {
		opts = append(opts, WithSerializedSends())
	}
	return opts
}

// PredictRequest is the body of POST /v1/predict. The zero value asks
// the CLI's default question: the medium deck on 128 processors under
// the general/homogeneous model.
type PredictRequest struct {
	Deck    string      `json:"deck,omitempty"`  // small|medium|large|figure2 (default medium)
	PEs     int         `json:"pes,omitempty"`   // default 128
	Model   string      `json:"model,omitempty"` // general-homo|general-het|mesh-specific (default general-homo)
	Machine MachineSpec `json:"machine,omitempty"`
}

// Normalized returns the request with defaults filled in.
func (r PredictRequest) Normalized() PredictRequest {
	if r.Deck == "" {
		r.Deck = "medium"
	}
	if r.PEs == 0 {
		r.PEs = 128
	}
	if r.Model == "" {
		r.Model = "general-homo"
	}
	r.Machine = r.Machine.Normalized()
	return r
}

// Scenario validates the request and builds the Scenario it describes.
func (r PredictRequest) Scenario() (*Scenario, error) {
	r = r.Normalized()
	model, err := ParseModel(r.Model)
	if err != nil {
		return nil, err
	}
	return NewScenario(WithDeck(r.Deck), WithPE(r.PEs), WithModel(model))
}

// CanonicalKey is the content-derived identity of the prediction this
// request asks for: the key the serving tier's response LRU stores the
// rendered body under, and the key the gateway hashes onto its replica
// ring — one definition, so a scenario always routes to the replica
// whose caches already hold it. The receiver is
// normalized first; callers that resolve the machine spec (server-side
// defaults, -quick) must do so before keying, as identical requests
// resolved differently are different content.
func (r PredictRequest) CanonicalKey() string {
	r = r.Normalized()
	return fmt.Sprintf("predict|%s|%d|%s|%s", r.Deck, r.PEs, r.Model, r.Machine.Fingerprint())
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	Deck        string      `json:"deck,omitempty"`        // default medium
	PEs         int         `json:"pes,omitempty"`         // default 128
	Iterations  int         `json:"iterations,omitempty"`  // default: the machine's repeat count
	Partitioner string      `json:"partitioner,omitempty"` // multilevel|rcb|sfc|strips|random (default multilevel)
	Machine     MachineSpec `json:"machine,omitempty"`
}

// Normalized returns the request with defaults filled in.
func (r SimulateRequest) Normalized() SimulateRequest {
	if r.Deck == "" {
		r.Deck = "medium"
	}
	if r.PEs == 0 {
		r.PEs = 128
	}
	if r.Partitioner == "" {
		r.Partitioner = "multilevel"
	}
	r.Machine = r.Machine.Normalized()
	return r
}

// Scenario validates the request and builds the Scenario it describes.
func (r SimulateRequest) Scenario() (*Scenario, error) {
	r = r.Normalized()
	opts := []ScenarioOption{
		WithDeck(r.Deck),
		WithPE(r.PEs),
		WithPartitioner(r.Partitioner),
	}
	if r.Iterations != 0 {
		opts = append(opts, WithIterations(r.Iterations))
	}
	return NewScenario(opts...)
}

// CanonicalKey is the content-derived cache/routing identity of this
// simulation; see PredictRequest.CanonicalKey for the contract.
func (r SimulateRequest) CanonicalKey() string {
	r = r.Normalized()
	return fmt.Sprintf("simulate|%s|%d|%d|%s|%s",
		r.Deck, r.PEs, r.Iterations, r.Partitioner, r.Machine.Fingerprint())
}

// SweepRequest is the body of POST /v1/sweep: the cross product of Decks
// and PEs evaluated concurrently on the serving machine's worker pool,
// decks major — the same grid `krak sweep` builds from its flags.
type SweepRequest struct {
	Op          string      `json:"op,omitempty"`          // predict|simulate (default predict)
	Decks       []string    `json:"decks,omitempty"`       // default ["medium"]
	PEs         []int       `json:"pes,omitempty"`         // default [32,64,128,256]
	Model       string      `json:"model,omitempty"`       // for predict points
	Partitioner string      `json:"partitioner,omitempty"` // for simulate points
	Iterations  int         `json:"iterations,omitempty"`  // for simulate points
	Machine     MachineSpec `json:"machine,omitempty"`
}

// Normalized returns the request with defaults filled in.
func (r SweepRequest) Normalized() SweepRequest {
	if r.Op == "" {
		r.Op = "predict"
	}
	if len(r.Decks) == 0 {
		r.Decks = []string{"medium"}
	}
	if len(r.PEs) == 0 {
		r.PEs = []int{32, 64, 128, 256}
	}
	if r.Model == "" {
		r.Model = "general-homo"
	}
	if r.Partitioner == "" {
		r.Partitioner = "multilevel"
	}
	r.Machine = r.Machine.Normalized()
	return r
}

// MaxSweepPoints bounds how many grid points one SweepRequest may ask
// for, so a hostile request body cannot demand an unbounded amount of
// work.
const MaxSweepPoints = 4096

// Grid validates the request and builds its sweep operation and scenario
// grid (decks major, PEs minor).
func (r SweepRequest) Grid() (SweepOp, []*Scenario, error) {
	r = r.Normalized()
	op, err := ParseSweepOp(r.Op)
	if err != nil {
		return "", nil, err
	}
	model, err := ParseModel(r.Model)
	if err != nil {
		return "", nil, err
	}
	if r.Iterations < 0 {
		return "", nil, fmt.Errorf("%w: iterations %d", ErrBadOption, r.Iterations)
	}
	// Division, not multiplication, so the product cannot overflow int on
	// 32-bit platforms (Normalized guarantees both slices are non-empty).
	if len(r.PEs) > MaxSweepPoints/len(r.Decks) {
		return "", nil, fmt.Errorf("%w: sweep grid %dx%d exceeds %d points",
			ErrBadOption, len(r.Decks), len(r.PEs), MaxSweepPoints)
	}
	var grid []*Scenario
	for _, deck := range r.Decks {
		for _, pe := range r.PEs {
			opts := []ScenarioOption{
				WithDeck(deck),
				WithPE(pe),
				WithModel(model),
				WithPartitioner(r.Partitioner),
			}
			if r.Iterations > 0 {
				opts = append(opts, WithIterations(r.Iterations))
			}
			sc, err := NewScenario(opts...)
			if err != nil {
				return "", nil, err
			}
			grid = append(grid, sc)
		}
	}
	return op, grid, nil
}

// SynthSpec asks the serving layer to self-generate a calibration
// dataset from the request's machine instead of being handed
// measurements: the (deck × PE) grid is measured through the simulator
// (op "simulate", the default — noisy, partition-aware "measured" times)
// or the analytic model (op "predict" — noiseless and exactly linear in
// the machine parameters).
type SynthSpec struct {
	Op    string   `json:"op,omitempty"`    // simulate (default) | predict
	Decks []string `json:"decks,omitempty"` // default ["small"]
	PEs   []int    `json:"pes,omitempty"`   // default [2,4,8,16,32]
}

// Normalized returns the spec with defaults filled in.
func (sy SynthSpec) Normalized() SynthSpec {
	if sy.Op == "" {
		sy.Op = "simulate"
	}
	if len(sy.Decks) == 0 {
		sy.Decks = []string{"small"}
	}
	if len(sy.PEs) == 0 {
		sy.PEs = []int{2, 4, 8, 16, 32}
	}
	return sy
}

// CalibrateRequest is the body of POST /v1/calibrate. Exactly one
// measurement source must be given: Dataset (a textual measurement file,
// the ParseDataset format), Observations (the same measurements in
// JSON), or Synth (self-generated runs on the request's machine).
type CalibrateRequest struct {
	Dataset      string        `json:"dataset,omitempty"`
	Observations []Observation `json:"observations,omitempty"`
	Synth        *SynthSpec    `json:"synth,omitempty"`

	// Folds enables k-fold cross-validation when >= 2.
	Folds int `json:"folds,omitempty"`

	// Form selects the timing-model form (see CalibrateOptions.Form);
	// empty means automatic selection.
	Form string `json:"form,omitempty"`

	// Model selects the feature model: general-homo (default) or
	// general-het.
	Model string `json:"model,omitempty"`

	Machine MachineSpec `json:"machine,omitempty"`
}

// Normalized returns the request with defaults filled in.
func (r CalibrateRequest) Normalized() CalibrateRequest {
	if r.Model == "" {
		r.Model = "general-homo"
	}
	if r.Synth != nil {
		sy := r.Synth.Normalized()
		r.Synth = &sy
	}
	r.Machine = r.Machine.Normalized()
	return r
}

// Scenario validates the request and builds the Scenario a calibrating
// Session uses (the feature-model choice).
func (r CalibrateRequest) Scenario() (*Scenario, error) {
	r = r.Normalized()
	model, err := ParseModel(r.Model)
	if err != nil {
		return nil, err
	}
	return NewScenario(WithModel(model))
}

// Materialize produces the request's dataset: parsing Dataset text,
// adopting Observations, or synthesizing measurements on the session's
// machine. Requests with zero or several sources return ErrCalibration.
func (r CalibrateRequest) Materialize(ctx context.Context, s *Session) (*Dataset, error) {
	r = r.Normalized()
	sources := 0
	if r.Dataset != "" {
		sources++
	}
	if len(r.Observations) > 0 {
		sources++
	}
	if r.Synth != nil {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: exactly one of dataset, observations, or synth must be given (got %d)",
			ErrCalibration, sources)
	}
	switch {
	case r.Dataset != "":
		return ParseDataset([]byte(r.Dataset))
	case len(r.Observations) > 0:
		return &Dataset{Name: "wire", Observations: r.Observations}, nil
	default:
		op, err := ParseSweepOp(r.Synth.Op)
		if err != nil {
			return nil, err
		}
		return s.SynthesizeDataset(ctx, op, r.Synth.Decks, r.Synth.PEs)
	}
}

// AppendRequest is the body of POST /v1/calibrate/append: fresh
// measurements to fold into the dataset stored for a registered machine
// (see Session.CalibrateAppend). Exactly one fresh source must be
// given: Dataset text or Observations.
type AppendRequest struct {
	// Fingerprint addresses the registered machine whose stored dataset
	// the fresh measurements extend.
	Fingerprint string `json:"fingerprint"`

	Dataset      string        `json:"dataset,omitempty"`
	Observations []Observation `json:"observations,omitempty"`

	// Folds enables k-fold cross-validation of the merged refit when
	// >= 2.
	Folds int `json:"folds,omitempty"`

	// Form selects the timing-model form (see CalibrateOptions.Form);
	// empty means automatic selection.
	Form string `json:"form,omitempty"`

	// Model selects the feature model: general-homo (default) or
	// general-het.
	Model string `json:"model,omitempty"`

	Machine MachineSpec `json:"machine,omitempty"`
}

// Normalized returns the request with defaults filled in.
func (r AppendRequest) Normalized() AppendRequest {
	if r.Model == "" {
		r.Model = "general-homo"
	}
	r.Machine = r.Machine.Normalized()
	return r
}

// Scenario validates the request and builds the Scenario an appending
// Session uses (the feature-model choice).
func (r AppendRequest) Scenario() (*Scenario, error) {
	r = r.Normalized()
	model, err := ParseModel(r.Model)
	if err != nil {
		return nil, err
	}
	return NewScenario(WithModel(model))
}

// Fresh produces the request's fresh measurements: parsing Dataset text
// or adopting Observations. Requests with zero or both sources return
// ErrCalibration.
func (r AppendRequest) Fresh() (*Dataset, error) {
	switch {
	case r.Dataset != "" && len(r.Observations) == 0:
		return ParseDataset([]byte(r.Dataset))
	case r.Dataset == "" && len(r.Observations) > 0:
		return &Dataset{Name: "wire", Observations: r.Observations}, nil
	}
	return nil, fmt.Errorf("%w: exactly one of dataset or observations must be given", ErrCalibration)
}

// RegisterMachineRequest is the body of POST /v1/machines/{fingerprint}:
// a calibration result to record as the fingerprint's next version,
// together with the dataset text it was fitted on (kept so appends can
// refit). The result's fitted fingerprint must match the path.
type RegisterMachineRequest struct {
	Result  *CalibrationResult `json:"result"`
	Dataset string             `json:"dataset,omitempty"`
}

// MachineHistorySchema stamps machine-registry history payloads.
const MachineHistorySchema = "krak.machines/v1"

// MachineVersion is one registered calibration of a machine: a version
// number counting up from 1, the dataset it was fitted on, and the full
// calibration result.
type MachineVersion struct {
	Version int                `json:"version"`
	Dataset string             `json:"dataset,omitempty"`
	Result  *CalibrationResult `json:"result"`
}

// MachineHistory is the body of GET /v1/machines/{fingerprint}: the
// registered calibration versions of one machine, oldest first.
type MachineHistory struct {
	Schema      historyStamp     `json:"schema"`
	Fingerprint string           `json:"fingerprint"`
	Versions    []MachineVersion `json:"versions"`
}

// historyStamp encodes as MachineHistorySchema.
type historyStamp struct{}

func (historyStamp) MarshalText() ([]byte, error) { return []byte(MachineHistorySchema), nil }

// UnmarshalJSON decodes a MachineHistory, rejecting payloads whose
// schema stamp is not MachineHistorySchema with ErrSchema.
func (mh *MachineHistory) UnmarshalJSON(data []byte) error {
	type alias MachineHistory
	aux := struct {
		Schema string `json:"schema"`
		*alias
	}{alias: (*alias)(mh)}
	err := json.Unmarshal(data, &aux)
	return checkStamp(err, aux.Schema, MachineHistorySchema, "machine history")
}

// MachineInfo is one entry of GET /v1/machines: an interconnect preset
// the server can serve predictions for.
type MachineInfo struct {
	Interconnect string `json:"interconnect"`
	Network      string `json:"network"`
}

// ListMachines returns the interconnect presets in stable order.
func ListMachines() []MachineInfo {
	var out []MachineInfo
	for _, name := range []string{"qsnet", "gige", "infiniband"} {
		net, err := interconnectByName(name)
		if err != nil {
			panic(err) // unreachable: the list above is the registry
		}
		out = append(out, MachineInfo{Interconnect: name, Network: net.Name()})
	}
	return out
}

// UnmarshalJSON decodes a Result (the CLI's --json output and every
// `krak serve` response), rejecting payloads whose schema stamp is not
// ResultSchema with ErrSchema.
func (r *Result) UnmarshalJSON(data []byte) error {
	type alias Result
	aux := struct {
		Schema string `json:"schema"`
		*alias
	}{alias: (*alias)(r)}
	err := json.Unmarshal(data, &aux)
	return checkStamp(err, aux.Schema, ResultSchema, "result")
}

// UnmarshalJSON decodes a SweepResult, rejecting payloads whose schema
// stamp is not SweepSchema with ErrSchema.
func (sr *SweepResult) UnmarshalJSON(data []byte) error {
	type alias SweepResult
	aux := struct {
		Schema string `json:"schema"`
		*alias
	}{alias: (*alias)(sr)}
	err := json.Unmarshal(data, &aux)
	return checkStamp(err, aux.Schema, SweepSchema, "sweep")
}
