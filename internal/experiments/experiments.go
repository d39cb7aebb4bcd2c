package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"krak/internal/engine"
	"krak/internal/mesh"
	"krak/internal/phases"
	"krak/internal/stats"
	"krak/internal/textplot"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID identifies the experiment ("table5", "figure2", ...).
	ID string

	// Title is the paper's caption, abbreviated.
	Title string

	// Header and Rows hold the experiment's primary table.
	Header []string
	Rows   [][]string

	// Text holds any chart or map rendering that accompanies the table.
	Text string

	// Notes records the paper-vs-reproduction comparison for
	// EXPERIMENTS.md.
	Notes string
}

// Render formats the result for a terminal.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", r.ID, r.Title)
	if len(r.Header) > 0 {
		b.WriteString(textplot.Table(r.Header, r.Rows))
		b.WriteByte('\n')
	}
	if r.Text != "" {
		b.WriteString(r.Text)
		b.WriteByte('\n')
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "Notes: %s\n", r.Notes)
	}
	return b.String()
}

// Experiment couples an ID to its runner. Runners observe ctx for
// cancellation of their internal row sweeps and may run rows on the Env's
// worker pool; their output is identical at every parallelism level.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, env *Env) (*Result, error)
}

// Registry lists every experiment in paper order.
var Registry = []Experiment{
	{ID: "table1", Title: "Summary of Krak activities by phase", Run: Table1},
	{ID: "table2", Title: "Ratio of materials in Krak general model", Run: Table2},
	{ID: "table3", Title: "Boundary exchange example", Run: Table3},
	{ID: "table4", Title: "Collective communication operations per iteration", Run: Table4},
	{ID: "table5", Title: "Validation results for mesh-specific model", Run: Table5},
	{ID: "table6", Title: "Krak validation results for general model", Run: Table6},
	{ID: "figure1", Title: "Example partitioning of 3200 cells on 16 processors", Run: Figure1},
	{ID: "figure2", Title: "Computation time by phase on 256 processors, 65,536 cells", Run: Figure2},
	{ID: "figure3", Title: "Per-cell computation times for phases 1, 2, and 7", Run: Figure3},
	{ID: "figure4", Title: "Processor boundary with four materials", Run: Figure4},
	{ID: "figure5", Title: "General model validation for medium and large problems", Run: Figure5},
	{ID: "ablation-partitioner", Title: "Ablation: partitioner choice vs iteration time", Run: AblationPartitioner},
	{ID: "ablation-overlap", Title: "Ablation: message overlap in the measured platform", Run: AblationOverlap},
	{ID: "ablation-knee", Title: "Ablation: removing the per-phase knee", Run: AblationKnee},
	{ID: "ablation-combine", Title: "Ablation: combining identical materials in Equation 5", Run: AblationCombine},
	{ID: "ablation-network", Title: "Ablation: interconnect choice (what-if)", Run: AblationNetwork},
	{ID: "sensitivity", Title: "Machine sensitivity analysis (procurement what-if)", Run: SensitivityStudy},
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll regenerates the experiments with the given ids (nil means the
// whole registry in paper order) as jobs on the pool, sharing env's
// artifact caches, and returns the results in ids order. The output of
// every experiment is byte-identical whatever the pool width; the error,
// if any, is the first failing experiment in ids order.
func RunAll(ctx context.Context, env *Env, ids []string, pool *engine.Pool) ([]*Result, error) {
	if ids == nil {
		for _, e := range Registry {
			ids = append(ids, e.ID)
		}
	}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, err := Find(id)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return engine.Map(ctx, pool, len(exps), func(ctx context.Context, i int) (*Result, error) {
		r, err := exps[i].Run(ctx, env)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", exps[i].ID, err)
		}
		return r, nil
	})
}

// Table1 reproduces the phase table.
func Table1(_ context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "table1",
		Title:  "Summary of Krak activities by phase (paper Table 1)",
		Header: []string{"Phase", "Action", "Sync Points"},
	}
	for _, p := range phases.Table1() {
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", p.Number), p.Action, fmt.Sprintf("%d", p.SyncPoints),
		})
	}
	res.Notes = "Phase structure is encoded in internal/phases and drives both the simulator and the model; sync points sum to 22 (= Table 4's all-reduce count)."
	return res, nil
}

// Table2 measures the deck's material ratios against the paper's.
func Table2(_ context.Context, env *Env) (*Result, error) {
	d, err := env.Deck(mesh.Medium)
	if err != nil {
		return nil, err
	}
	fr := d.Mesh.MaterialFractions()
	res := &Result{
		ID:     "table2",
		Title:  "Ratio of materials (paper Table 2, heterogeneous row)",
		Header: []string{"Material", "Paper", "Deck (measured)", "Diff"},
	}
	for m := 0; m < mesh.NumMaterials; m++ {
		want := mesh.Table2Heterogeneous[m]
		res.Rows = append(res.Rows, []string{
			mesh.Material(m).String(),
			fmt.Sprintf("%.1f%%", want*100),
			fmt.Sprintf("%.1f%%", fr[m]*100),
			fmt.Sprintf("%+.2f pp", (fr[m]-want)*100),
		})
	}
	res.Notes = "Deck generator lays radial material bands whose cell fractions track Table 2 within grid rounding; homogeneous mode assumes 100% per material by construction."
	return res, nil
}

// Table3 reproduces the boundary-exchange example message sizes.
func Table3(_ context.Context, env *Env) (*Result, error) {
	b := CanonicalFigure4Boundary()
	msgs := phases.BoundaryExchangeMessages(b)
	// Group messages by (step, size).
	type key struct {
		step  int
		bytes int
	}
	counts := map[key]int{}
	for _, m := range msgs {
		counts[key{m.Step, m.Bytes}]++
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		si, sj := keys[i].step, keys[j].step
		if si == -1 {
			si = 1 << 30
		}
		if sj == -1 {
			sj = 1 << 30
		}
		if si != sj {
			return si < sj
		}
		return keys[i].bytes > keys[j].bytes
	})
	res := &Result{
		ID:     "table3",
		Title:  "Boundary exchange example (paper Table 3 / Figure 4)",
		Header: []string{"Material", "Msg. Count", "Size of Each Msg (bytes)"},
	}
	for _, k := range keys {
		name := "All"
		if k.step >= 0 {
			name = mesh.ExchangeGroup(k.step).String()
		}
		res.Rows = append(res.Rows, []string{
			name, fmt.Sprintf("%d", counts[k]), fmt.Sprintf("%d", k.bytes),
		})
	}
	res.Notes = "Exactly matches Table 3: H.E. gas 2x48+4x36, aluminum (both) 2x84+4x48, foam 2x60+4x36, final step 6x120 bytes."
	return res, nil
}

// Table4 reproduces the collective schedule.
func Table4(_ context.Context, env *Env) (*Result, error) {
	tot := phases.Table4()
	res := &Result{
		ID:     "table4",
		Title:  "Collective communication operations per iteration (paper Table 4)",
		Header: []string{"Type", "Count", "Size (bytes)", "Paper"},
	}
	paper := map[string]string{
		"MPI_Bcast/4": "3", "MPI_Bcast/8": "3",
		"MPI_Allreduce/4": "9", "MPI_Allreduce/8": "13",
		"MPI_Gather/32": "1",
	}
	add := func(op string, bySize map[int]int) {
		sizes := make([]int, 0, len(bySize))
		for s := range bySize {
			sizes = append(sizes, s)
		}
		sort.Ints(sizes)
		for _, s := range sizes {
			res.Rows = append(res.Rows, []string{
				op, fmt.Sprintf("%d", bySize[s]), fmt.Sprintf("%d", s),
				paper[fmt.Sprintf("%s/%d", op, s)],
			})
		}
	}
	add("MPI_Bcast", tot.BcastBySize)
	add("MPI_Allreduce", tot.AllreduceBySize)
	add("MPI_Gather", tot.GatherBySize)
	res.Notes = "Derived from the phase table rather than stated independently; agreement with Table 4 is a consistency check on the Table 1 encoding."
	return res, nil
}

// validationRow formats one measured-vs-predicted row.
func validationRow(label string, p int, meas, pred float64, paperErr string) []string {
	return []string{
		label,
		fmt.Sprintf("%d", p),
		fmt.Sprintf("%.0f", meas*1e3),
		fmt.Sprintf("%.0f", pred*1e3),
		stats.FormatPct(stats.RelErr(meas, pred)),
		paperErr,
	}
}

// Table5 validates the mesh-specific model, calibrated with the §3.1
// least-squares method on each deck, as the paper did ("This second method
// is used for the validation results presented below").
func Table5(ctx context.Context, env *Env) (*Result, error) {
	res := &Result{
		ID:     "table5",
		Title:  "Validation results for mesh-specific model (paper Table 5)",
		Header: []string{"Problem", "PEs", "Meas (ms)", "Pred (ms)", "Error", "Paper error"},
	}
	cases := []struct {
		size     mesh.StandardSize
		calPs    []int
		predPs   []int
		paperErr []string
	}{
		// The small deck's predictions sit in the per-cell cost knee, so
		// its calibration campaigns (2-32 PEs) cannot pin the curves there:
		// the paper saw -59%, +52.7%, -10.0%.
		{mesh.Small, []int{2, 8, 32}, []int{16, 64, 128}, []string{"-59.0%", "52.7%", "-10.0%"}},
		// The medium deck stays right of the knee: 5.9%, -0.8%, 4.5%.
		{mesh.Medium, []int{16, 64, 256}, []int{16, 64, 128}, []string{"5.9%", "-0.8%", "4.5%"}},
	}
	if env.Quick {
		cases[0].calPs = []int{2, 8}
		cases[1].calPs = []int{8, 32}
		cases[1].predPs = []int{16, 64, 128}
	}
	net := env.Net
	// Each deck's calibration campaign is one engine job, and each
	// validation point within it is another; rows come back in paper
	// order regardless of pool width.
	rowsByCase, err := engine.Map(ctx, env.pool(), len(cases), func(ctx context.Context, ci int) ([][]string, error) {
		c := cases[ci]
		d, err := env.Deck(c.size)
		if err != nil {
			return nil, err
		}
		cal, err := env.DeckCalibration(d, c.calPs)
		if err != nil {
			return nil, err
		}
		model := newMeshSpecific(cal, net)
		return engine.Map(ctx, env.pool(), len(c.predPs), func(_ context.Context, i int) ([]string, error) {
			p := c.predPs[i]
			plan, err := env.Plan(d, p)
			if err != nil {
				return nil, err
			}
			sum := plan.Summary()
			meas, err := env.Measure(plan)
			if err != nil {
				return nil, err
			}
			pred, err := model.Predict(sum)
			if err != nil {
				return nil, err
			}
			return validationRow(c.size.String(), p, meas, pred.Total, c.paperErr[i]), nil
		})
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range rowsByCase {
		res.Rows = append(res.Rows, rows...)
	}
	res.Notes = "Shape match: small-deck errors oscillate wildly (knee regime, as in the paper); medium-deck errors stay within ~10%. Absolute errors differ because the measured platform is a simulator."
	return res, nil
}

// Table6 validates the general model (homogeneous), calibrated with
// contrived grids.
func Table6(ctx context.Context, env *Env) (*Result, error) {
	cal, err := env.ContrivedCalibration()
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "table6",
		Title:  "Krak validation results for general model, homogeneous (paper Table 6)",
		Header: []string{"Problem", "PEs", "Meas (ms)", "Pred (ms)", "Error", "Paper error"},
	}
	cases := []struct {
		size     mesh.StandardSize
		predPs   []int
		paperErr []string
	}{
		{mesh.Medium, []int{128, 256, 512}, []string{"-8.0%", "-4.0%", "2.9%"}},
		{mesh.Large, []int{128, 256, 512}, []string{"-4.3%", "-4.6%", "-1.0%"}},
	}
	model := newGeneralHomo(cal, env.Net)
	// Flatten the (deck, PE-count) grid into one engine job per
	// validation point; every point partitions, measures, and predicts
	// independently against the shared caches.
	type point struct {
		size     mesh.StandardSize
		p        int
		paperErr string
	}
	var pts []point
	for _, c := range cases {
		for i, p := range c.predPs {
			pts = append(pts, point{c.size, p, c.paperErr[i]})
		}
	}
	rows, err := engine.Map(ctx, env.pool(), len(pts), func(_ context.Context, i int) ([]string, error) {
		pt := pts[i]
		d, err := env.Deck(pt.size)
		if err != nil {
			return nil, err
		}
		plan, err := env.Plan(d, pt.p)
		if err != nil {
			return nil, err
		}
		meas, err := env.Measure(plan)
		if err != nil {
			return nil, err
		}
		pred, err := model.Predict(d.Mesh.NumCells(), pt.p)
		if err != nil {
			return nil, err
		}
		return validationRow(pt.size.String(), pt.p, meas, pred.Total, pt.paperErr), nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.Notes = "The homogeneous general model validates within a few percent and is best at scale, matching the paper's headline 512-PE accuracy of ~3%."
	return res, nil
}
