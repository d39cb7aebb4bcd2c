package krak

import (
	"context"
	"fmt"

	"krak/internal/cluster"
	"krak/internal/core"
	"krak/internal/experiments"
	"krak/internal/hydro"
	"krak/internal/mesh"
	"krak/internal/partition"
	"krak/internal/stats"
	"krak/internal/textplot"
)

// Session binds a Machine to a Scenario and answers the paper's
// questions: Predict (analytic model), Simulate (the discrete-event
// "measured" platform), RunHydro (the actual mini-app), Partition
// (partition quality), and Experiment (regenerate a paper artifact).
type Session struct {
	m  *Machine
	sc *Scenario
}

// NewSession binds a machine and a scenario.
func NewSession(m *Machine, sc *Scenario) (*Session, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil machine", ErrBadOption)
	}
	if sc == nil {
		return nil, fmt.Errorf("%w: nil scenario", ErrBadOption)
	}
	return &Session{m: m, sc: sc}, nil
}

// deck resolves the scenario's deck through the machine's artifact store,
// so standard and custom sizes alike are built once and shared across
// sessions, sweep points, and server requests.
func (s *Session) deck() (*mesh.Deck, error) {
	if s.sc.parsed != nil {
		return s.sc.parsed, nil
	}
	if s.sc.custom {
		d, err := s.m.env.CustomDeck(s.sc.w, s.sc.h)
		if err != nil {
			return nil, modelErr("custom deck", err)
		}
		return d, nil
	}
	d, err := s.m.env.Deck(s.sc.deckSize)
	if err != nil {
		return nil, modelErr("deck", err)
	}
	return d, nil
}

// partitionSummary resolves the scenario's partition through the machine's
// artifact store — every partitioner, not just the default multilevel one,
// is cached per (deck, algorithm, seed, PE count).
func (s *Session) partitionSummary(d *mesh.Deck) (*mesh.PartitionSummary, error) {
	if s.sc.partitioner == "multilevel" {
		sum, err := s.m.env.Partition(d, s.sc.pe)
		if err != nil {
			return nil, modelErr("partition", err)
		}
		return sum, nil
	}
	pr, err := partitionerByName(s.sc.partitioner, s.m.env.Seed)
	if err != nil {
		return nil, err
	}
	sum, serr := s.m.env.SummaryFor(d, pr, s.sc.pe)
	if serr != nil {
		return nil, modelErr("partition summary", serr)
	}
	return sum, nil
}

func (s *Session) iterations() int {
	if s.sc.iterations > 0 {
		return s.sc.iterations
	}
	return s.m.Repeats()
}

// Predict evaluates the scenario's analytic model variant and returns a
// KindPredict result with the per-phase compute/P2P/collective split.
func (s *Session) Predict() (*Result, error) {
	d, err := s.deck()
	if err != nil {
		return nil, err
	}
	var pred *core.Prediction
	switch s.sc.model {
	case GeneralHomogeneous, GeneralHeterogeneous:
		cal, err := s.m.env.ContrivedCalibration()
		if err != nil {
			return nil, modelErr("contrived calibration", err)
		}
		mode := core.Homogeneous
		if s.sc.model == GeneralHeterogeneous {
			mode = core.Heterogeneous
		}
		pred, err = core.NewGeneral(cal, s.m.env.Net, mode).Predict(d.Mesh.NumCells(), s.sc.pe)
		if err != nil {
			return nil, modelErr("general prediction", err)
		}
	case MeshSpecific:
		cal, err := s.m.deckCalibration(d, s.sc.calPEs)
		if err != nil {
			return nil, err
		}
		sum, err := s.partitionSummary(d)
		if err != nil {
			return nil, err
		}
		p, perr := core.NewMeshSpecific(cal, s.m.env.Net).Predict(sum)
		if perr != nil {
			return nil, modelErr("mesh-specific prediction", perr)
		}
		pred = p
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownModel, s.sc.model)
	}

	res := &Result{
		Kind:           KindPredict,
		Deck:           d.Name,
		Cells:          d.Mesh.NumCells(),
		PEs:            s.sc.pe,
		Network:        s.m.NetworkName(),
		Model:          s.sc.model.String(),
		TotalSeconds:   pred.Total,
		ComputeSeconds: pred.Compute(),
		CommSeconds:    pred.Communication(),
	}
	for i := range pred.PhaseCompute {
		res.Phases = append(res.Phases, PhaseBreakdown{
			Phase:        i + 1,
			Compute:      pred.PhaseCompute[i],
			PointToPoint: pred.PhaseP2P[i],
			Collective:   pred.PhaseCollective[i],
			Comm:         pred.PhaseP2P[i] + pred.PhaseCollective[i],
			Total:        pred.PhaseTotal(i + 1),
		})
	}
	return res, nil
}

// Simulate runs the cluster simulator for the scenario's iteration count
// and returns a KindSimulate result: the first iteration's per-phase
// breakdown plus mean/min/max statistics over all iterations.
func (s *Session) Simulate() (*Result, error) {
	d, err := s.deck()
	if err != nil {
		return nil, err
	}
	sum, err := s.partitionSummary(d)
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Net:            s.m.env.Net,
		Costs:          s.m.env.Costs,
		SerializeSends: s.m.serialize,
	}
	n := s.iterations()
	results, mean, simErr := cluster.SimulateIterations(sum, cfg, n)
	if simErr != nil {
		return nil, modelErr("cluster simulation", simErr)
	}

	r0 := results[0]
	res := &Result{
		Kind:         KindSimulate,
		Deck:         d.Name,
		Cells:        d.Mesh.NumCells(),
		PEs:          s.sc.pe,
		Network:      s.m.NetworkName(),
		TotalSeconds: mean,
		Partition: &PartitionReport{
			Algorithm:    s.sc.partitioner,
			EdgeCut:      sum.EdgeCut(),
			Imbalance:    sum.Imbalance(),
			MaxNeighbors: sum.MaxNeighbors(),
		},
	}
	times := make([]float64, 0, len(results))
	for _, r := range results {
		times = append(times, r.IterationTime)
	}
	res.Iterations = &IterationStats{
		Count:             n,
		MeanSeconds:       mean,
		MinSeconds:        stats.Min(times),
		MaxSeconds:        stats.Max(times),
		CollectiveSeconds: r0.CollectiveTime,
	}
	for ph := range r0.PhaseTimes {
		maxComp := stats.Max(r0.ComputeTimes[ph])
		res.Phases = append(res.Phases, PhaseBreakdown{
			Phase:   ph + 1,
			Compute: maxComp,
			Comm:    r0.CommTimes[ph],
			Total:   r0.PhaseTimes[ph],
		})
		res.ComputeSeconds += maxComp
		res.CommSeconds += r0.CommTimes[ph]
	}
	return res, nil
}

// RunHydro executes the Lagrangian hydrodynamics mini-app for the
// scenario's steps on its rank count and returns a KindHydro result with
// physics diagnostics and the per-phase wall-clock profile.
func (s *Session) RunHydro() (*Result, error) {
	d, err := s.deck()
	if err != nil {
		return nil, err
	}
	var diag hydro.Diagnostics
	var timers hydro.PhaseSeconds
	if s.sc.ranks <= 1 {
		st, err := hydro.NewState(d, hydro.Options{})
		if err != nil {
			return nil, modelErr("hydro state", err)
		}
		for i := 0; i < s.sc.steps; i++ {
			if err := hydro.Step(st, hydro.Serial{}, &timers); err != nil {
				return nil, modelErr("hydro step", err)
			}
			if s.sc.progressFn != nil && (i+1)%s.sc.progressEvery == 0 {
				dg := st.Diag()
				s.sc.progressFn(HydroTick{
					Cycle:          dg.Cycle,
					Time:           dg.Time,
					DT:             st.DT,
					BurnedCells:    dg.BurnedCells,
					MaxPressure:    dg.MaxPressure,
					KineticEnergy:  dg.KineticEnergy,
					InternalEnergy: dg.InternalEnergy,
				})
			}
		}
		diag = st.Diag()
	} else {
		part, err := s.m.env.PartitionVector(d, s.sc.ranks)
		if err != nil {
			return nil, modelErr("partition vector", err)
		}
		pr, err := hydro.RunParallel(d, part, s.sc.ranks, s.sc.steps, hydro.Options{})
		if err != nil {
			return nil, modelErr("parallel hydro", err)
		}
		diag, timers = pr.Diag, pr.PhaseSeconds
	}
	return &Result{
		Kind:  KindHydro,
		Deck:  d.Name,
		Cells: d.Mesh.NumCells(),
		Hydro: &HydroReport{
			Ranks:          s.sc.ranks,
			Steps:          s.sc.steps,
			Cycle:          diag.Cycle,
			Time:           diag.Time,
			TotalMass:      diag.TotalMass,
			InternalEnergy: diag.InternalEnergy,
			KineticEnergy:  diag.KineticEnergy,
			EnergyReleased: diag.EnergyReleased,
			BurnedCells:    diag.BurnedCells,
			MaxPressure:    diag.MaxPressure,
			MinVolume:      diag.MinVolume,
			PhaseSeconds:   timers[:],
		},
	}, nil
}

// Partition partitions the scenario's deck with its partitioner and
// returns a KindPartition result: quality metrics, the per-PE material
// table, and (for small grids) the Figure 1 subgrid map.
func (s *Session) Partition() (*Result, error) {
	d, err := s.deck()
	if err != nil {
		return nil, err
	}
	pr, err := partitionerByName(s.sc.partitioner, s.m.env.Seed)
	if err != nil {
		return nil, err
	}
	g, gerr := s.m.env.Graph(d)
	if gerr != nil {
		return nil, modelErr("deck graph", gerr)
	}
	part, verr := s.m.env.VectorFor(d, pr, s.sc.pe)
	if verr != nil {
		return nil, modelErr("partition vector", verr)
	}
	q := partition.QualityOf(pr.Name(), g, part, s.sc.pe)
	sum, serr := s.m.env.SummaryFor(d, pr, s.sc.pe)
	if serr != nil {
		return nil, modelErr("partition summary", serr)
	}

	rep := &PartitionReport{
		Algorithm:    q.Algorithm,
		EdgeCut:      int(q.EdgeCut),
		Imbalance:    q.Imbalance,
		MaxNeighbors: sum.MaxNeighbors(),
	}
	for pe := 0; pe < s.sc.pe; pe++ {
		ghosts := 0
		for _, nb := range sum.NeighborsOf[pe] {
			ghosts += sum.Boundary(pe, nb).GhostNodes
		}
		rep.PerPE = append(rep.PerPE, PEStat{
			PE:         pe,
			Cells:      sum.TotalCells[pe],
			ByMaterial: sum.CellsByMaterial[pe],
			Neighbors:  len(sum.NeighborsOf[pe]),
			GhostNodes: ghosts,
		})
	}
	if d.Mesh.W > 0 && d.Mesh.W <= 200 {
		rep.Map = textplot.GridMap("Subgrid map (characters = PE ids):",
			d.Mesh.W, d.Mesh.H, func(x, y int) int { return part[y*d.Mesh.W+x] })
	}
	return &Result{
		Kind:      KindPartition,
		Deck:      d.Name,
		Cells:     d.Mesh.NumCells(),
		PEs:       s.sc.pe,
		Partition: rep,
	}, nil
}

// experimentResult wraps an internal experiment result as a KindExperiment
// Result.
func experimentResult(r *experiments.Result) *Result {
	e := ExperimentReport(*r)
	return &Result{Kind: KindExperiment, Experiment: &e}
}

// Experiment regenerates one paper table or figure by registry id (see
// ListExperiments) and returns a KindExperiment result.
func (s *Session) Experiment(id string) (*Result, error) {
	e, err := experiments.Find(id)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
	}
	r, err := e.Run(context.Background(), s.m.env)
	if err != nil {
		return nil, fmt.Errorf("%w: experiment %s: %w", ErrModel, id, err)
	}
	return experimentResult(r), nil
}

// Experiments regenerates the paper tables and figures with the given ids
// (nil means every registry entry, in paper order) as concurrent jobs on
// the machine's worker pool, sharing the machine's artifact caches. The
// results come back in ids order and each one is byte-identical to what a
// serial Experiment call produces — parallelism changes only the wall
// clock. The first failing id (in ids order) aborts the batch.
func (s *Session) Experiments(ctx context.Context, ids []string) ([]*Result, error) {
	for _, id := range ids {
		if _, err := experiments.Find(id); err != nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
		}
	}
	rs, err := experiments.RunAll(ctx, s.m.env, ids, s.m.pool)
	if err != nil {
		return nil, modelErr("experiments", err)
	}
	out := make([]*Result, len(rs))
	for i, r := range rs {
		out[i] = experimentResult(r)
	}
	return out, nil
}

// ExperimentInfo identifies one entry of the experiment registry.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// ListExperiments returns the experiment registry in paper order.
func ListExperiments() []ExperimentInfo {
	out := make([]ExperimentInfo, 0, len(experiments.Registry))
	for _, e := range experiments.Registry {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return out
}
