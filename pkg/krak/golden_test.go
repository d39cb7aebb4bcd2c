package krak

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"krak/internal/cluster"
	"krak/internal/core"
	"krak/internal/experiments"
	"krak/internal/mesh"
)

// quickSession builds a scaled-down session for the given options.
func quickSession(t *testing.T, opts ...ScenarioOption) *Session {
	t.Helper()
	m, err := NewMachine(WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(m, sc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPredictMatchesCoreGeneral asserts the façade is a zero-cost wrapper:
// Predict() through pkg/krak equals internal/core called directly with an
// identically configured environment.
func TestPredictMatchesCoreGeneral(t *testing.T) {
	s := quickSession(t, WithDeck("medium"), WithPE(64), WithModel(GeneralHomogeneous))
	got, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}

	env := experiments.NewQuickEnv()
	d, err := env.Deck(mesh.Medium)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := env.ContrivedCalibration()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewGeneral(cal, env.Net, core.Homogeneous).Predict(d.Mesh.NumCells(), 64)
	if err != nil {
		t.Fatal(err)
	}

	if math.Abs(got.TotalSeconds-want.Total) > 1e-15 {
		t.Errorf("façade total %.9g != core total %.9g", got.TotalSeconds, want.Total)
	}
	if len(got.Phases) != len(want.PhaseCompute) {
		t.Fatalf("façade has %d phases, core has %d", len(got.Phases), len(want.PhaseCompute))
	}
	for i, ph := range got.Phases {
		if math.Abs(ph.Compute-want.PhaseCompute[i]) > 1e-15 ||
			math.Abs(ph.PointToPoint-want.PhaseP2P[i]) > 1e-15 ||
			math.Abs(ph.Collective-want.PhaseCollective[i]) > 1e-15 {
			t.Errorf("phase %d: façade (%g,%g,%g) != core (%g,%g,%g)", i+1,
				ph.Compute, ph.PointToPoint, ph.Collective,
				want.PhaseCompute[i], want.PhaseP2P[i], want.PhaseCollective[i])
		}
	}
}

// TestPredictMatchesCoreMeshSpecific does the same for the mesh-specific
// variant, including the deck-calibration path.
func TestPredictMatchesCoreMeshSpecific(t *testing.T) {
	s := quickSession(t, WithDeck("small"), WithPE(8), WithModel(MeshSpecific),
		WithCalibrationPEs(2, 4))
	got, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}

	env := experiments.NewQuickEnv()
	d, err := env.Deck(mesh.Small)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := env.DeckCalibration(d, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := env.Partition(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewMeshSpecific(cal, env.Net).Predict(sum)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.TotalSeconds-want.Total) > 1e-15 {
		t.Errorf("façade total %.9g != core total %.9g", got.TotalSeconds, want.Total)
	}
}

// TestSimulateMatchesCluster asserts Simulate() reproduces the simulator's
// numbers exactly.
func TestSimulateMatchesCluster(t *testing.T) {
	s := quickSession(t, WithDeck("small"), WithPE(8), WithIterations(2))
	got, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}

	env := experiments.NewQuickEnv()
	d, err := env.Deck(mesh.Small)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := env.Partition(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cluster.NewPlan(sum)
	if err != nil {
		t.Fatal(err)
	}
	_, mean, err := cluster.SimulateIterations(plan, cluster.Config{Net: env.Net, Costs: env.Costs}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.TotalSeconds-mean) > 1e-15 {
		t.Errorf("façade mean %.9g != cluster mean %.9g", got.TotalSeconds, mean)
	}
	if got.Iterations == nil || got.Iterations.Count != 2 {
		t.Errorf("iteration stats missing or wrong: %+v", got.Iterations)
	}
}

// TestResultJSONMatchesRendering asserts the --json path: json.Marshal
// emits valid, stamped JSON whose headline number matches the text
// rendering.
func TestResultJSONMatchesRendering(t *testing.T) {
	s := quickSession(t, WithDeck("medium"), WithPE(128))
	res, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}

	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["kind"] != "predict" {
		t.Errorf("kind = %v", decoded["kind"])
	}
	if decoded["schema"] != ResultSchema {
		t.Errorf("schema = %v, want %q", decoded["schema"], ResultSchema)
	}
	if decoded["pes"] != float64(128) {
		t.Errorf("pes = %v", decoded["pes"])
	}
	total, ok := decoded["total_s"].(float64)
	if !ok || total <= 0 {
		t.Fatalf("total_s = %v", decoded["total_s"])
	}
	phs, ok := decoded["phases"].([]any)
	if !ok || len(phs) != 15 {
		t.Fatalf("phases = %T len %d", decoded["phases"], len(phs))
	}

	text := res.Render()
	headline := fmt.Sprintf("Predicted iteration time: %.1f ms", total*1e3)
	if !strings.Contains(text, headline) {
		t.Errorf("rendering does not contain %q:\n%s", headline, text)
	}
	if !strings.Contains(text, "128 PEs") {
		t.Errorf("rendering does not mention the PE count:\n%s", text)
	}
}

// TestHydroSerialParallelAgree runs the mini-app both ways through the
// façade and checks the conserved quantities agree.
func TestHydroSerialParallelAgree(t *testing.T) {
	serial := quickSession(t, WithDeckDims(20, 10), WithSteps(25), WithRanks(1))
	sres, err := serial.RunHydro()
	if err != nil {
		t.Fatal(err)
	}
	parallel := quickSession(t, WithDeckDims(20, 10), WithSteps(25), WithRanks(2))
	pres, err := parallel.RunHydro()
	if err != nil {
		t.Fatal(err)
	}
	sd, pd := sres.Hydro, pres.Hydro
	if sd.Cycle != 25 || pd.Cycle != 25 {
		t.Fatalf("cycles: serial %d, parallel %d", sd.Cycle, pd.Cycle)
	}
	if math.Abs(sd.InternalEnergy-pd.InternalEnergy) > 1e-9 ||
		math.Abs(sd.KineticEnergy-pd.KineticEnergy) > 1e-9 {
		t.Errorf("energies diverge: serial (%g, %g), parallel (%g, %g)",
			sd.InternalEnergy, sd.KineticEnergy, pd.InternalEnergy, pd.KineticEnergy)
	}
	if sd.BurnedCells != pd.BurnedCells {
		t.Errorf("burned cells: serial %d, parallel %d", sd.BurnedCells, pd.BurnedCells)
	}
}

// TestHydroProgressCallback checks the serial progress hook fires on the
// requested interval and the run's result is unchanged by observing it.
func TestHydroProgressCallback(t *testing.T) {
	var ticks []HydroTick
	observed := quickSession(t, WithDeckDims(20, 10), WithSteps(20),
		WithHydroProgress(5, func(tk HydroTick) { ticks = append(ticks, tk) }))
	ores, err := observed.RunHydro()
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 4 {
		t.Fatalf("got %d ticks, want 4", len(ticks))
	}
	for i, tk := range ticks {
		if tk.Cycle != (i+1)*5 {
			t.Errorf("tick %d at cycle %d, want %d", i, tk.Cycle, (i+1)*5)
		}
		if tk.DT <= 0 {
			t.Errorf("tick %d has non-positive dt %g", i, tk.DT)
		}
	}
	plain := quickSession(t, WithDeckDims(20, 10), WithSteps(20))
	pres, err := plain.RunHydro()
	if err != nil {
		t.Fatal(err)
	}
	if ores.Hydro.InternalEnergy != pres.Hydro.InternalEnergy ||
		ores.Hydro.Cycle != pres.Hydro.Cycle {
		t.Errorf("progress observation changed the run: %+v vs %+v", ores.Hydro, pres.Hydro)
	}
}

// TestPartitionReport sanity-checks the Partition() result against the
// deck's totals.
func TestPartitionReport(t *testing.T) {
	s := quickSession(t, WithDeck("small"), WithPE(4))
	res, err := s.Partition()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Partition
	if p == nil {
		t.Fatal("no partition report")
	}
	if len(p.PerPE) != 4 {
		t.Fatalf("per-PE rows = %d", len(p.PerPE))
	}
	cells := 0
	for _, st := range p.PerPE {
		cells += st.Cells
	}
	if cells != res.Cells {
		t.Errorf("per-PE cells sum %d != deck cells %d", cells, res.Cells)
	}
	if p.EdgeCut <= 0 || p.MaxNeighbors <= 0 {
		t.Errorf("degenerate quality: edge cut %d, max neighbors %d", p.EdgeCut, p.MaxNeighbors)
	}
	if p.Map == "" {
		t.Error("small deck should render a subgrid map")
	}
}

// TestExperimentThroughFacade regenerates one cheap experiment end to end.
func TestExperimentThroughFacade(t *testing.T) {
	s := quickSession(t)
	res, err := s.Experiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	e := res.Experiment
	if e == nil || e.ID != "table1" || len(e.Rows) != 15 {
		t.Fatalf("unexpected experiment report: %+v", e)
	}
	if !strings.Contains(res.Render(), "table1") {
		t.Error("rendering does not mention the experiment id")
	}
}
