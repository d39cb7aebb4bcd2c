// Package krak is the public façade of the Krak performance-model
// reproduction — the only supported entry point into the library. It wraps
// the analytic model, the discrete-event cluster simulator, the
// hydrodynamics mini-app, the experiment registry, and the concurrent
// sweep engine behind three concepts:
//
//   - A Machine describes the platform: the interconnect (QsNet-I by
//     default, the paper's validation network), the ground-truth
//     computation cost tables, the partitioner seed, how many iterations
//     are averaged per measurement, and how many concurrent jobs its
//     worker pool runs (WithParallelism; as wide as the hardware by
//     default). QsNetCluster returns the paper's AlphaServer ES45 /
//     QsNet-I cluster; GigECluster and InfinibandCluster are the what-if
//     presets. Arbitrary platforms come from declarative machine files
//     (LoadMachine / ParseMachineFile: custom piecewise networks via
//     WithNetworkSpec, compute rates via WithComputeScale) or from
//     calibration (below). A Machine memoizes decks, partitions, and
//     calibrations in single-flight caches, so concurrent work shares
//     artifacts instead of recomputing them — reuse one Machine whenever
//     the platform is the same.
//
//   - A Scenario describes the workload: which input deck, how many
//     processors, which model variant, which partitioner, built with
//     functional options such as WithDeck("medium"), WithPE(128), and
//     WithModel(MeshSpecific).
//
//   - A Session binds the two and answers questions: Predict evaluates the
//     analytic model, Simulate runs the cluster simulator ("measures"),
//     RunHydro executes the actual mini-app, Partition reports partition
//     quality, Experiment regenerates a paper table or figure,
//     Experiments regenerates a batch of them concurrently on the
//     machine's pool, and Calibrate fits machine parameters (compute
//     scale, latency, bandwidth, fixed overhead) to a timing Dataset —
//     measured elsewhere or self-generated with SynthesizeDataset —
//     returning a CalibrationResult whose Fitted MachineSpec feeds
//     straight back into NewMachine. CalibrateOptions selects the
//     timing-model form (FormAuto cross-validates the zoo ModelForms
//     lists and reports a selection Scoreboard), and CalibrateAppend
//     folds fresh measurements into a stored dataset with a drift
//     check (DriftReport) against the base fit's error band.
//
// Session methods return a unified *Result carrying typed per-phase
// breakdowns, partition or hydro diagnostics, and both human-readable
// (Render) and machine-readable (RenderJSON) output.
//
// A minimal end-to-end use:
//
//	m := krak.QsNetCluster()
//	sc, err := krak.NewScenario(krak.WithDeck("medium"), krak.WithPE(128))
//	if err != nil { ... }
//	s, err := krak.NewSession(m, sc)
//	if err != nil { ... }
//	res, err := s.Predict()
//	if err != nil { ... }
//	fmt.Print(res.Render())
//
// # Sweeps
//
// The paper's evaluation is sweep-shaped — every table and figure walks a
// grid of (deck, processor-count) points — and Session.Sweep is the
// batch-evaluation path for that shape: it evaluates a grid of Scenarios
// concurrently on the machine's worker pool and returns a SweepResult
// with every point's Result in grid order plus aggregate timing
// (WallSeconds vs WorkSeconds, whose ratio is the realized speedup).
// Points share the machine's memoized artifacts through single-flight
// caches, so each deck, partition, and calibration is built exactly once
// per machine no matter how wide the pool is, and every point's output is
// byte-identical to a standalone serial run — parallelism changes only
// the wall clock. See ExampleSession_Sweep for a runnable grid
// evaluation.
//
// # Serving
//
// `krak serve` exposes Predict, Simulate, Sweep, Calibrate, and the
// experiment registry as a long-running HTTP service. This package
// carries the service's wire types so clients and server share one
// schema: PredictRequest, SimulateRequest, SweepRequest,
// CalibrateRequest, AppendRequest, and RegisterMachineRequest are the
// POST bodies (each with Normalized defaults and a
// Scenario/Grid/Materialize/Fresh constructor), MachineSpec selects the
// platform (preset, custom network, compute scale, or an embedded
// machine file; Fingerprint is its content identity), and
// Result/SweepResult/CalibrationResult/MachineHistory round-trip
// through encoding/json with a schema stamp (ResultSchema, SweepSchema,
// CalibrationSchema, MachineHistorySchema) that each type's first field
// writes and its UnmarshalJSON enforces via ErrSchema. A /v1/predict response is
// byte-identical to `krak predict --json` for the same scenario,
// /v1/calibrate to `krak calibrate --json`, and /v1/calibrate/append to
// `krak calibrate -append --json`; GET /v1/machines/{fingerprint}
// serves a registered machine's calibration history byte-identically
// across server restarts. See docs/ARCHITECTURE.md's Serving and
// Calibration sections for the endpoint table and data flows.
//
// The canonical request keys the serving tier caches by are exposed as
// PredictRequest.CanonicalKey and SimulateRequest.CanonicalKey, and
// `krak gateway` consistent-hashes the same keys to route a
// multi-replica fleet with warm caches; ErrUnavailable is the typed
// refusal (HTTP 503 + Retry-After on the wire) both the server and the
// gateway return when a request cannot be placed right now — shed it
// or retry later. docs/ARCHITECTURE.md's Resilience section covers the
// gateway's retry/breaker/failover design and the deterministic
// fault-injection layer behind its chaos suite.
//
// Everything under internal/ is unstable implementation detail; new code
// should depend only on this package. docs/ARCHITECTURE.md maps the
// internal packages; docs/MODEL.md maps the paper's model terms to them.
package krak
