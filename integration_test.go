// Integration tests: cross-package flows that mirror how the examples and
// the paper's methodology use the library end to end.
package krak

import (
	"context"
	"math"
	"strings"
	"testing"

	"krak/internal/cluster"
	"krak/internal/compute"
	"krak/internal/core"
	"krak/internal/experiments"
	"krak/internal/hydro"
	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/partition"
	"krak/internal/phases"
)

// TestEndToEndGeneralModelValidation is the quickstart flow: deck →
// partition → simulate → calibrate → predict, asserting the paper's
// headline property (general/homogeneous model error small and best at
// scale) on a scaled-down deck.
func TestEndToEndGeneralModelValidation(t *testing.T) {
	env := experiments.NewQuickEnv()
	d, err := env.Deck(mesh.Medium)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := env.ContrivedCalibration()
	if err != nil {
		t.Fatal(err)
	}
	model := core.NewGeneral(cal, env.Net, core.Homogeneous)
	for _, p := range []int{32, 64, 128} {
		sum, err := env.Partition(d, p)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := env.Measure(sum)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := model.Predict(d.Mesh.NumCells(), p)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(meas-pred.Total) / meas; rel > 0.10 {
			t.Errorf("P=%d general model error %.1f%% > 10%%", p, rel*100)
		}
	}
}

// TestEndToEndMeshSpecificBeatsGeneralOnExactPartition checks that, with a
// well-calibrated cost table, the mesh-specific model (which sees the true
// irregular partition) does not do worse than the idealized general model
// at moderate scale.
func TestEndToEndMeshSpecificTracksMeasured(t *testing.T) {
	env := experiments.NewQuickEnv()
	d, err := env.Deck(mesh.Medium)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := env.ContrivedCalibration()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := env.Partition(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := env.Measure(sum)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.NewMeshSpecific(cal, env.Net).Predict(sum)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(meas-pred.Total) / meas; rel > 0.10 {
		t.Errorf("mesh-specific error %.1f%% > 10%%", rel*100)
	}
}

// TestHeterogeneousCrossover verifies the Figure 5 mechanism on the
// simulated platform: the heterogeneous model's error trends downward
// (toward over-prediction) as P grows, because per-material boundary
// messages pile up latency.
func TestHeterogeneousCrossover(t *testing.T) {
	env := experiments.NewQuickEnv()
	d, err := env.Deck(mesh.Medium)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := env.ContrivedCalibration()
	if err != nil {
		t.Fatal(err)
	}
	het := core.NewGeneral(cal, env.Net, core.Heterogeneous)
	var errs []float64
	for _, p := range []int{16, 64, 256} {
		sum, err := env.Partition(d, p)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := env.Measure(sum)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := het.Predict(d.Mesh.NumCells(), p)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, (meas-pred.Total)/meas)
	}
	if !(errs[2] < errs[0]) {
		t.Errorf("heterogeneous error did not trend toward over-prediction: %v", errs)
	}
}

// TestHydroProfileSupportsCostTableShape ties the application to the cost
// model: in the real hydro code, the heavy compute-only phases (3 and 6)
// must dominate the light bookkeeping phases, matching the weighting the
// ES45 truth table assumes.
func TestHydroProfileSupportsCostTableShape(t *testing.T) {
	d, err := mesh.BuildLayeredDeck(40, 20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := hydro.NewState(d, hydro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var timers hydro.PhaseSeconds
	for i := 0; i < 50; i++ {
		if err := hydro.Step(s, hydro.Serial{}, &timers); err != nil {
			t.Fatal(err)
		}
	}
	heavy := timers[2] + timers[5]  // phases 3 and 6
	light := timers[0] + timers[12] // phases 1 and 13
	if heavy <= light {
		t.Errorf("phases 3+6 (%.4fs) should outweigh phases 1+13 (%.4fs)", heavy, light)
	}
}

// TestPartitionerQualityOrdering checks the expected quality ordering on
// the simulated cluster: multilevel <= sfc/rcb < strips < random iteration
// time.
func TestPartitionerQualityOrdering(t *testing.T) {
	d, err := mesh.BuildLayeredDeck(80, 40)
	if err != nil {
		t.Fatal(err)
	}
	g := partition.FromMesh(d.Mesh)
	cfg := cluster.Config{Net: netmodel.QsNetI(), Costs: compute.ES45().WithoutNoise()}
	const p = 32
	times := map[string]float64{}
	for _, pr := range []partition.Partitioner{
		partition.NewMultilevel(1), partition.SFC{}, partition.Strips{}, partition.Random{Seed: 1},
	} {
		part, err := pr.Partition(g, p)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := mesh.Summarize(d.Mesh, part, p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := cluster.Simulate(sum, cfg)
		if err != nil {
			t.Fatal(err)
		}
		times[pr.Name()] = r.IterationTime
	}
	if !(times["multilevel-kway"] <= times["hilbert-sfc"]*1.05) {
		t.Errorf("multilevel (%v) should not lose clearly to sfc (%v)",
			times["multilevel-kway"], times["hilbert-sfc"])
	}
	if !(times["hilbert-sfc"] < times["random"]) {
		t.Errorf("sfc (%v) should beat random (%v)", times["hilbert-sfc"], times["random"])
	}
	if !(times["strips-x"] < times["random"]) {
		t.Errorf("strips (%v) should beat random (%v)", times["strips-x"], times["random"])
	}
}

// TestExperimentRegistryRunsQuick smoke-runs every registered experiment in
// quick mode — the same path the benchmark harness and the CLI take.
func TestExperimentRegistryRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	env := experiments.NewQuickEnv()
	for _, e := range experiments.Registry {
		res, err := e.Run(context.Background(), env)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if res.ID != e.ID {
			t.Fatalf("%s returned result id %s", e.ID, res.ID)
		}
		if out := res.Render(); !strings.Contains(out, res.ID) {
			t.Fatalf("%s render missing id", e.ID)
		}
	}
}

// TestPhaseTableDrivesBothSides asserts the single-source-of-truth
// property: the simulator's per-phase communication matches the phase
// table's declared actions.
func TestPhaseTableDrivesBothSides(t *testing.T) {
	env := experiments.NewQuickEnv()
	d, err := env.Deck(mesh.Small)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := env.Partition(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Net: netmodel.QsNetI(), Costs: compute.ES45().WithoutNoise(), Exact: true}
	r, err := cluster.Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := env.ContrivedCalibration()
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.NewMeshSpecific(cal, env.Net).Predict(sum)
	if err != nil {
		t.Fatal(err)
	}
	for i, ph := range phases.Table1() {
		simHasP2P := r.CommTimes[i] > pred.PhaseCollective[i]+1e-9
		if ph.HasPointToPoint() != simHasP2P && sum.P > 1 {
			t.Errorf("phase %d: table says p2p=%v, simulator shows %v",
				ph.Number, ph.HasPointToPoint(), simHasP2P)
		}
		modelHasP2P := pred.PhaseP2P[i] > 0
		if ph.HasPointToPoint() != modelHasP2P {
			t.Errorf("phase %d: table says p2p=%v, model shows %v",
				ph.Number, ph.HasPointToPoint(), modelHasP2P)
		}
	}
}
