// Repository benchmark harness: one benchmark per paper table and figure
// (each regenerates the artifact through the experiments package in quick
// mode), the ablation benches docs/ARCHITECTURE.md calls out,
// microbenchmarks of the load-bearing kernels (partitioner, simulator,
// model, hydro step), and the serial-vs-parallel sweep pair that measures
// the engine's speedup (BenchmarkSweepSerial / BenchmarkSweepParallel).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches are regeneration harnesses, not microbenchmarks:
// per-op times report how long regenerating the table/figure takes with
// memoized decks/partitions warm after the first iteration. The sweep
// benches instead build a fresh machine (cold caches) every iteration, so
// they measure the full concurrent execution path.
package krak

import (
	"context"
	"runtime"
	"testing"

	"krak/internal/artifacts"
	"krak/internal/cluster"
	"krak/internal/compute"
	"krak/internal/core"
	"krak/internal/experiments"
	"krak/internal/hydro"
	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/partition"
	api "krak/pkg/krak"
)

// benchExperiment runs one experiment repeatedly against a shared quick
// environment.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	env := experiments.NewQuickEnv()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(ctx, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1PhaseTable(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2MaterialRatios(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3BoundaryExchange(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4Collectives(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkTable5MeshSpecific(b *testing.B)     { benchExperiment(b, "table5") }
func BenchmarkTable6General(b *testing.B)          { benchExperiment(b, "table6") }
func BenchmarkFigure1Partitioning(b *testing.B)    { benchExperiment(b, "figure1") }
func BenchmarkFigure2PhaseTimes(b *testing.B)      { benchExperiment(b, "figure2") }
func BenchmarkFigure3CostCurves(b *testing.B)      { benchExperiment(b, "figure3") }
func BenchmarkFigure4Boundary(b *testing.B)        { benchExperiment(b, "figure4") }
func BenchmarkFigure5Scaling(b *testing.B)         { benchExperiment(b, "figure5") }

// Ablation benches (design choices called out in docs/ARCHITECTURE.md).

func BenchmarkAblationPartitioner(b *testing.B) { benchExperiment(b, "ablation-partitioner") }
func BenchmarkAblationOverlap(b *testing.B)     { benchExperiment(b, "ablation-overlap") }
func BenchmarkAblationKnee(b *testing.B)        { benchExperiment(b, "ablation-knee") }
func BenchmarkAblationCombine(b *testing.B)     { benchExperiment(b, "ablation-combine") }
func BenchmarkAblationNetwork(b *testing.B)     { benchExperiment(b, "ablation-network") }

// Sweep benches: the same (deck, PE-count) grid through Session.Sweep,
// serial vs parallel. Both benches are cold by construction, and "cold"
// means exactly this: every iteration builds a fresh Machine whose
// artifact store (decks, graphs, partitions — internal/artifacts) starts
// empty, so the deck is built once per iteration behind its single-flight
// cache and every (deck, p) partition and simulation is computed from
// scratch. Nothing is shared between the two benches or across
// iterations: the artifact store is per-Machine unless explicitly shared
// with WithSharedArtifacts, and the repo holds no process-global artifact
// state.
//
// The parallel bench's per-op time under the serial bench's is the
// engine's realized speedup (≥2x expected on a 4-core runner). On a
// single hardware thread the honest expectation for the ratio is ~1.0:
// the points are pure CPU work, so no pool width can compress their wall
// time.

// benchSweep runs the simulate grid at the given worker-pool width.
func benchSweep(b *testing.B, parallel int) {
	b.Helper()
	pes := []int{8, 16, 24, 32, 48, 64, 96, 128}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := api.NewMachine(api.WithQuick(), api.WithParallelism(parallel))
		if err != nil {
			b.Fatal(err)
		}
		grid := make([]*api.Scenario, 0, len(pes))
		for _, pe := range pes {
			sc, err := api.NewScenario(api.WithDeck("medium"), api.WithPE(pe))
			if err != nil {
				b.Fatal(err)
			}
			grid = append(grid, sc)
		}
		base, err := api.NewScenario()
		if err != nil {
			b.Fatal(err)
		}
		s, err := api.NewSession(m, base)
		if err != nil {
			b.Fatal(err)
		}
		sr, err := s.Sweep(ctx, api.SweepSimulate, grid)
		if err != nil {
			b.Fatal(err)
		}
		if len(sr.Points) != len(pes) {
			b.Fatalf("sweep returned %d points, want %d", len(sr.Points), len(pes))
		}
	}
}

func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the pool as wide as the hardware allows but
// never narrower than 4 workers: on a single-core runner GOMAXPROCS(0) is
// 1, which would silently turn this into a second serial bench — exactly
// what BENCH_PR4.json recorded (its parallel==serial numbers were measured
// at pool width 1 on a 1-CPU runner, not evidence of an engine convoy).
// Pinning a minimum width keeps the benchmark measuring the engine's
// scheduling path; the wall-clock ratio to SweepSerial is only meaningful
// on runners with >1 hardware thread.
func BenchmarkSweepParallel(b *testing.B) {
	w := runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4
	}
	benchSweep(b, w)
}

// Microbenchmarks of the load-bearing kernels.

func benchDeckSummary(b *testing.B, p int) *mesh.PartitionSummary {
	b.Helper()
	d, err := mesh.BuildLayeredDeck(160, 80) // 12,800 cells
	if err != nil {
		b.Fatal(err)
	}
	g := partition.FromMesh(d.Mesh)
	part, err := partition.NewMultilevel(1).Partition(g, p)
	if err != nil {
		b.Fatal(err)
	}
	sum, err := mesh.Summarize(d.Mesh, part, p)
	if err != nil {
		b.Fatal(err)
	}
	return sum
}

// benchDeckPlan is benchDeckSummary's exchange plan, built once as the
// artifact store builds it.
func benchDeckPlan(b *testing.B, p int) *cluster.Plan {
	b.Helper()
	plan, err := cluster.NewPlan(benchDeckSummary(b, p))
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkQuickDecks builds the four quick standard decks every replica
// serves from, through a fresh artifact store each op. B/op is the
// per-deck mesh data a replica carries, so per-cell fields that creep
// back show up in bench-diff.
func BenchmarkQuickDecks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store := artifacts.NewStore()
		for _, sz := range []mesh.StandardSize{mesh.Small, mesh.Medium, mesh.Large, mesh.Figure2} {
			if _, err := store.StandardDeck(sz, true); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPartitionMultilevel128(b *testing.B) {
	d, err := mesh.BuildLayeredDeck(160, 80)
	if err != nil {
		b.Fatal(err)
	}
	g := partition.FromMesh(d.Mesh)
	ml := partition.NewMultilevel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.Partition(g, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSimulate128 measures the simulator's per-iteration cost
// on the path every measurement takes: one cluster.Runner reused across
// iterations (exactly what SimulateIterations' Repeats loop does), so the
// working buffers are warm and only the Result allocates.
func BenchmarkClusterSimulate128(b *testing.B) {
	plan := benchDeckPlan(b, 128)
	cfg := cluster.Config{Net: netmodel.QsNetI(), Costs: compute.ES45()}
	r := cluster.NewRunner(plan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Iteration = i
		if _, err := r.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateIterationsFresh128 is the serving path: every
// /v1/simulate request hands SimulateIterations the artifact store's
// plan and gets a fresh cluster.Runner, so whatever the Runner sets up on
// first use (its buffers and wire times) is paid per request. One
// iteration per op shows that cost at its largest;
// BenchmarkClusterSimulate128's warm Runner hides it.
func BenchmarkSimulateIterationsFresh128(b *testing.B) {
	plan := benchDeckPlan(b, 128)
	cfg := cluster.Config{Net: netmodel.QsNetI(), Costs: compute.ES45()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Iteration = i
		if _, _, err := cluster.SimulateIterations(plan, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeshSpecificPredict128(b *testing.B) {
	sum := benchDeckSummary(b, 128)
	env := experiments.NewQuickEnv()
	cal, err := env.ContrivedCalibration()
	if err != nil {
		b.Fatal(err)
	}
	model := core.NewMeshSpecific(cal, env.Net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Predict(sum); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneralPredict512(b *testing.B) {
	env := experiments.NewQuickEnv()
	cal, err := env.ContrivedCalibration()
	if err != nil {
		b.Fatal(err)
	}
	model := core.NewGeneral(cal, env.Net, core.Homogeneous)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Predict(204800, 512); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHydroStepSerial(b *testing.B) {
	d, err := mesh.BuildLayeredDeck(40, 20)
	if err != nil {
		b.Fatal(err)
	}
	s, err := hydro.NewState(d, hydro.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hydro.Step(s, hydro.Serial{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHydroParallel4(b *testing.B) {
	d, err := mesh.BuildLayeredDeck(40, 20)
	if err != nil {
		b.Fatal(err)
	}
	g := partition.FromMesh(d.Mesh)
	part, err := partition.NewMultilevel(1).Partition(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hydro.RunParallel(d, part, 4, 5, hydro.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
