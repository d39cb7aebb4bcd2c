// Package krak is a from-scratch Go reproduction of "A Performance Model
// of the Krak Hydrodynamics Application" (Barker, Pakin, Kerbyson —
// ICPP 2006).
//
// The public API lives in pkg/krak: Machine describes the platform
// (QsNetCluster is the paper's AlphaServer ES45 / QsNet-I validation
// machine, WithParallelism bounds its worker pool), Scenario describes the
// workload via functional options (WithDeck, WithPE, WithModel, ...), and
// Session answers questions — Predict (analytic model), Simulate
// (discrete-event "measured" platform), RunHydro (the Lagrangian
// mini-app), Partition (partition quality), Experiment/Experiments
// (regenerate paper tables and figures, serially or as a concurrent
// batch), Sweep (evaluate a whole grid of scenarios concurrently), and
// Calibrate (fit machine parameters to measured timings, yielding a
// reusable machine description) — all returning unified
// Result/SweepResult/CalibrationResult values with Render and
// schema-stamped JSON output. The cmd/krak CLI exposes the same
// operations as subcommands (predict, simulate, hydro, part, sweep,
// experiments, calibrate), and `krak serve` runs them as a long-lived
// HTTP service (internal/server) whose responses are byte-identical to
// the CLI's --json output; pkg/krak also carries the service's wire types
// (PredictRequest, SimulateRequest, SweepRequest, CalibrateRequest,
// MachineSpec — including declarative machine files via
// ParseMachineFile/-machine-file).
//
// Everything under internal/ — the analytic model (internal/core), the
// hydro mini-app (internal/hydro), the METIS-style partitioner
// (internal/partition), the QsNet-like network model (internal/netmodel),
// the cluster simulator (internal/cluster), and the concurrent execution
// substrate (internal/engine: worker pools and single-flight artifact
// caches) — is unstable implementation detail; depend only on pkg/krak.
// docs/ARCHITECTURE.md maps every package and the data flow between them;
// docs/MODEL.md maps the paper's equations to the code.
//
// The root package carries the repository-level benchmark harness
// (bench_test.go): one benchmark per paper table and figure, the ablation
// benches, and the serial-vs-parallel sweep pair (BenchmarkSweepSerial /
// BenchmarkSweepParallel) that measures the engine's speedup.
package krak
