package krak

import (
	"fmt"
	"strings"

	"krak/internal/experiments"
	"krak/internal/textplot"
)

// Kind labels which Session method produced a Result.
type Kind string

// The result kinds.
const (
	KindPredict    Kind = "predict"
	KindSimulate   Kind = "simulate"
	KindHydro      Kind = "hydro"
	KindPartition  Kind = "partition"
	KindExperiment Kind = "experiment"
)

// PhaseBreakdown is one phase's share of an iteration. For predictions the
// point-to-point and collective shares are split out and Comm is their
// sum; for simulations Comm is the phase duration minus the slowest
// processor's compute time (overlap makes a finer split ill-defined) and
// the split fields are zero.
type PhaseBreakdown struct {
	Phase        int     `json:"phase"`
	Compute      float64 `json:"compute_s"`
	PointToPoint float64 `json:"p2p_s,omitempty"`
	Collective   float64 `json:"collective_s,omitempty"`
	Comm         float64 `json:"comm_s"`
	Total        float64 `json:"total_s"`
}

// IterationStats summarizes a multi-iteration simulation.
type IterationStats struct {
	Count             int     `json:"count"`
	MeanSeconds       float64 `json:"mean_s"`
	MinSeconds        float64 `json:"min_s"`
	MaxSeconds        float64 `json:"max_s"`
	CollectiveSeconds float64 `json:"collective_s"`
}

// PEStat is one processor's share of a partition.
type PEStat struct {
	PE         int    `json:"pe"`
	Cells      int    `json:"cells"`
	ByMaterial [4]int `json:"by_material"`
	Neighbors  int    `json:"neighbors"`
	GhostNodes int    `json:"ghost_nodes"`
}

// PartitionReport describes a partition's quality.
type PartitionReport struct {
	Algorithm    string   `json:"algorithm"`
	EdgeCut      int      `json:"edge_cut"`
	Imbalance    float64  `json:"imbalance"`
	MaxNeighbors int      `json:"max_neighbors"`
	PerPE        []PEStat `json:"per_pe,omitempty"`
	Map          string   `json:"map,omitempty"`
}

// HydroReport carries the mini-app's physics diagnostics and per-phase
// wall-clock profile.
type HydroReport struct {
	Ranks          int       `json:"ranks"`
	Steps          int       `json:"steps"`
	Cycle          int       `json:"cycle"`
	Time           float64   `json:"time"`
	TotalMass      float64   `json:"total_mass"`
	InternalEnergy float64   `json:"internal_energy"`
	KineticEnergy  float64   `json:"kinetic_energy"`
	EnergyReleased float64   `json:"energy_released"`
	BurnedCells    int       `json:"burned_cells"`
	MaxPressure    float64   `json:"max_pressure"`
	MinVolume      float64   `json:"min_volume"`
	PhaseSeconds   []float64 `json:"phase_seconds"`
}

// ExperimentReport is one regenerated paper table or figure.
type ExperimentReport struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
	Text   string     `json:"text,omitempty"`
	Notes  string     `json:"notes,omitempty"`
}

// Result is the unified answer every Session method returns. Fields not
// relevant to the producing method are zero and omitted from JSON.
type Result struct {
	Schema  resultStamp `json:"schema"`
	Kind    Kind        `json:"kind"`
	Deck    string      `json:"deck,omitempty"`
	Cells   int         `json:"cells,omitempty"`
	PEs     int         `json:"pes,omitempty"`
	Network string      `json:"network,omitempty"`
	Model   string      `json:"model,omitempty"`

	// TotalSeconds is the headline number: predicted iteration time for
	// Predict, mean measured iteration time for Simulate.
	TotalSeconds   float64 `json:"total_s,omitempty"`
	ComputeSeconds float64 `json:"compute_s,omitempty"`
	CommSeconds    float64 `json:"comm_s,omitempty"`

	Phases     []PhaseBreakdown  `json:"phases,omitempty"`
	Iterations *IterationStats   `json:"iterations,omitempty"`
	Partition  *PartitionReport  `json:"partition,omitempty"`
	Hydro      *HydroReport      `json:"hydro,omitempty"`
	Experiment *ExperimentReport `json:"experiment,omitempty"`
}

// ResultSchema identifies the JSON layout Result marshals to, so machine
// consumers can detect layout changes across releases.
const ResultSchema = "krak.result/v1"

// resultStamp encodes as ResultSchema.
type resultStamp struct{}

func (resultStamp) MarshalText() ([]byte, error) { return []byte(ResultSchema), nil }

// Render formats the result for a terminal, mirroring the JSON content.
func (r *Result) Render() string {
	var b strings.Builder
	switch r.Kind {
	case KindPredict:
		fmt.Fprintf(&b, "Deck %s (%d cells) on %d PEs, %s model, network %s\n\n",
			r.Deck, r.Cells, r.PEs, r.Model, r.Network)
		header := []string{"Phase", "Compute (ms)", "P2P (ms)", "Collective (ms)", "Total (ms)"}
		var rows [][]string
		for _, ph := range r.Phases {
			rows = append(rows, []string{
				fmt.Sprintf("%d", ph.Phase),
				fmt.Sprintf("%.3f", ph.Compute*1e3),
				fmt.Sprintf("%.3f", ph.PointToPoint*1e3),
				fmt.Sprintf("%.3f", ph.Collective*1e3),
				fmt.Sprintf("%.3f", ph.Total*1e3),
			})
		}
		b.WriteString(textplot.Table(header, rows))
		fmt.Fprintf(&b, "\nPredicted iteration time: %.1f ms (compute %.1f ms, communication %.1f ms)\n",
			r.TotalSeconds*1e3, r.ComputeSeconds*1e3, r.CommSeconds*1e3)

	case KindSimulate:
		fmt.Fprintf(&b, "Deck %s (%d cells) on %d PEs — network %s\n",
			r.Deck, r.Cells, r.PEs, r.Network)
		if r.Partition != nil {
			fmt.Fprintf(&b, "Partition: %s, edge cut %d faces, imbalance %.3f, max neighbors %d\n",
				r.Partition.Algorithm, r.Partition.EdgeCut, r.Partition.Imbalance, r.Partition.MaxNeighbors)
		}
		b.WriteByte('\n')
		header := []string{"Phase", "Duration (ms)", "Comm share (ms)", "Max compute (ms)"}
		var rows [][]string
		for _, ph := range r.Phases {
			rows = append(rows, []string{
				fmt.Sprintf("%d", ph.Phase),
				fmt.Sprintf("%.3f", ph.Total*1e3),
				fmt.Sprintf("%.3f", ph.Comm*1e3),
				fmt.Sprintf("%.3f", ph.Compute*1e3),
			})
		}
		b.WriteString(textplot.Table(header, rows))
		if it := r.Iterations; it != nil {
			fmt.Fprintf(&b, "\nIteration time over %d iterations: mean %.1f ms (min %.1f, max %.1f), collectives %.1f ms\n",
				it.Count, it.MeanSeconds*1e3, it.MinSeconds*1e3, it.MaxSeconds*1e3, it.CollectiveSeconds*1e3)
		}

	case KindHydro:
		h := r.Hydro
		if h == nil {
			fmt.Fprintf(&b, "Result(kind=%s, no hydro report)\n", r.Kind)
			break
		}
		fmt.Fprintf(&b, "Deck %s: %d cells, %d steps on %d rank(s)\n\n", r.Deck, r.Cells, h.Steps, h.Ranks)
		fmt.Fprintf(&b, "Final: cycle %d, t=%.4f\n", h.Cycle, h.Time)
		fmt.Fprintf(&b, "  mass            %.6f\n", h.TotalMass)
		fmt.Fprintf(&b, "  internal energy %.6f\n", h.InternalEnergy)
		fmt.Fprintf(&b, "  kinetic energy  %.6f\n", h.KineticEnergy)
		fmt.Fprintf(&b, "  released        %.6f\n", h.EnergyReleased)
		fmt.Fprintf(&b, "  burned cells    %d\n", h.BurnedCells)
		fmt.Fprintf(&b, "  max pressure    %.4f\n", h.MaxPressure)
		labels := make([]string, len(h.PhaseSeconds))
		vals := make([]float64, len(h.PhaseSeconds))
		for i := range labels {
			labels[i] = fmt.Sprintf("phase %2d", i+1)
			vals[i] = h.PhaseSeconds[i] * 1e3
		}
		b.WriteByte('\n')
		b.WriteString(textplot.Bars("Wall-clock per phase (ms, accumulated):", labels, vals, 40))

	case KindPartition:
		p := r.Partition
		if p == nil {
			fmt.Fprintf(&b, "Result(kind=%s, no partition report)\n", r.Kind)
			break
		}
		fmt.Fprintf(&b, "Deck %s (%d cells) into %d parts with %s\n", r.Deck, r.Cells, r.PEs, p.Algorithm)
		fmt.Fprintf(&b, "  edge cut      %d faces\n", p.EdgeCut)
		fmt.Fprintf(&b, "  imbalance     %.3f\n", p.Imbalance)
		fmt.Fprintf(&b, "  max neighbors %d\n\n", p.MaxNeighbors)
		header := []string{"PE", "Cells", "HE Gas", "Al(In)", "Foam", "Al(Out)", "Neighbors", "Ghost nodes"}
		var rows [][]string
		for _, s := range p.PerPE {
			rows = append(rows, []string{
				fmt.Sprintf("%d", s.PE),
				fmt.Sprintf("%d", s.Cells),
				fmt.Sprintf("%d", s.ByMaterial[0]),
				fmt.Sprintf("%d", s.ByMaterial[1]),
				fmt.Sprintf("%d", s.ByMaterial[2]),
				fmt.Sprintf("%d", s.ByMaterial[3]),
				fmt.Sprintf("%d", s.Neighbors),
				fmt.Sprintf("%d", s.GhostNodes),
			})
		}
		b.WriteString(textplot.Table(header, rows))
		if p.Map != "" {
			b.WriteByte('\n')
			b.WriteString(p.Map)
		}

	case KindExperiment:
		e := r.Experiment
		if e == nil {
			fmt.Fprintf(&b, "Result(kind=%s, no experiment report)\n", r.Kind)
			break
		}
		// The experiment goldens pin this renderer's bytes.
		er := experiments.Result(*e)
		b.WriteString(er.Render())

	default:
		fmt.Fprintf(&b, "Result(kind=%s)\n", r.Kind)
	}
	return b.String()
}
