package krak

import (
	"context"
	"fmt"
	"strings"
	"time"

	"krak/internal/engine"
	"krak/internal/textplot"
)

// SweepOp selects which Session question a sweep asks at every grid point.
type SweepOp string

// The sweep operations.
const (
	// SweepPredict evaluates each scenario's analytic model (Session.Predict).
	SweepPredict SweepOp = "predict"
	// SweepSimulate runs the cluster simulator at each point (Session.Simulate).
	SweepSimulate SweepOp = "simulate"
)

// ParseSweepOp maps a CLI spelling to a SweepOp.
func ParseSweepOp(s string) (SweepOp, error) {
	switch s {
	case "predict":
		return SweepPredict, nil
	case "simulate":
		return SweepSimulate, nil
	}
	return "", fmt.Errorf("%w: sweep op %q (predict|simulate)", ErrBadOption, s)
}

// SweepPoint is one evaluated point of a sweep grid.
type SweepPoint struct {
	// Index is the point's position in the submitted grid.
	Index int `json:"index"`

	// Deck, PEs, and Model identify the point's scenario.
	Deck  string `json:"deck"`
	PEs   int    `json:"pes"`
	Model string `json:"model,omitempty"`

	// Seconds is the wall-clock time spent evaluating this point.
	Seconds float64 `json:"seconds"`

	// Result is the point's full answer.
	Result *Result `json:"result"`
}

// SweepResult is the outcome of a Session.Sweep: every grid point's Result
// in submission order plus the sweep's aggregate timing. WorkSeconds over
// WallSeconds is the realized parallel speedup.
type SweepResult struct {
	Schema      sweepStamp   `json:"schema"`
	Op          SweepOp      `json:"op"`
	Network     string       `json:"network"`
	Parallelism int          `json:"parallelism"`
	Points      []SweepPoint `json:"points"`

	// WallSeconds is the elapsed time of the whole sweep. WorkSeconds is
	// the sum of every point's evaluation wall time — an upper bound on
	// the serial cost: when parallel points block on the same in-flight
	// cache fill (a shared deck or calibration), each counts its wait,
	// which a serial run would pay only once.
	WallSeconds float64 `json:"wall_s"`
	WorkSeconds float64 `json:"work_s"`
}

// Speedup reports WorkSeconds/WallSeconds — the aggregate point time the
// sweep compressed into its wall time. Because WorkSeconds can
// double-count waits on shared artifacts (see WorkSeconds), this is an
// optimistic estimate of the true serial-vs-parallel ratio; benchmark
// serial against parallel runs (BenchmarkSweepSerial /
// BenchmarkSweepParallel) for the exact figure.
func (sr *SweepResult) Speedup() float64 {
	if sr.WallSeconds == 0 {
		return 0
	}
	return sr.WorkSeconds / sr.WallSeconds
}

// SweepSchema identifies the JSON layout SweepResult marshals to.
const SweepSchema = "krak.sweep/v1"

// sweepStamp encodes as SweepSchema.
type sweepStamp struct{}

func (sweepStamp) MarshalText() ([]byte, error) { return []byte(SweepSchema), nil }

// Render formats the sweep as a summary table for a terminal.
func (sr *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep %s over %d points on network %s (parallelism %d)\n\n",
		sr.Op, len(sr.Points), sr.Network, sr.Parallelism)
	header := []string{"#", "Deck", "PEs", "Model", "Total (ms)", "Compute (ms)", "Comm (ms)"}
	var rows [][]string
	for _, pt := range sr.Points {
		model := pt.Model
		if model == "" {
			model = "-"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.Index),
			pt.Deck,
			fmt.Sprintf("%d", pt.PEs),
			model,
			fmt.Sprintf("%.1f", pt.Result.TotalSeconds*1e3),
			fmt.Sprintf("%.1f", pt.Result.ComputeSeconds*1e3),
			fmt.Sprintf("%.1f", pt.Result.CommSeconds*1e3),
		})
	}
	b.WriteString(textplot.Table(header, rows))
	fmt.Fprintf(&b, "\nSweep wall time %.2f s for %.2f s of point work (%.1fx speedup)\n",
		sr.WallSeconds, sr.WorkSeconds, sr.Speedup())
	return b.String()
}

// Sweep evaluates op at every scenario of the grid concurrently on the
// machine's worker pool (WithParallelism; GOMAXPROCS by default) and
// returns a SweepResult with the per-point Results in grid order plus the
// sweep's aggregate timing. An empty grid evaluates the session's own
// scenario as a single point.
//
// The grid points share the machine's memoized decks, partitions, and
// calibrations through single-flight caches, so each artifact is built
// once no matter how many points need it or how wide the pool is; every
// point's Result is byte-identical to what a standalone Session would
// produce. The first failing point (in grid order) aborts the sweep, as
// does cancelling ctx; either way the unstarted points are skipped, while
// points already executing run to completion (the underlying model and
// simulator calls are not interruptible).
func (s *Session) Sweep(ctx context.Context, op SweepOp, grid []*Scenario) (*SweepResult, error) {
	switch op {
	case SweepPredict, SweepSimulate:
	default:
		return nil, fmt.Errorf("%w: sweep op %q", ErrBadOption, op)
	}
	if len(grid) == 0 {
		grid = []*Scenario{s.sc}
	}
	for i, sc := range grid {
		if sc == nil {
			return nil, fmt.Errorf("%w: nil scenario at grid index %d", ErrBadOption, i)
		}
	}

	start := time.Now()
	points, err := engine.Map(ctx, s.m.pool, len(grid), func(_ context.Context, i int) (SweepPoint, error) {
		sc := grid[i]
		sub := &Session{m: s.m, sc: sc}
		t0 := time.Now()
		var res *Result
		var err error
		switch op {
		case SweepPredict:
			res, err = sub.Predict()
		case SweepSimulate:
			res, err = sub.Simulate()
		}
		if err != nil {
			return SweepPoint{}, fmt.Errorf("krak: sweep point %d (deck %s, %d PEs): %w",
				i, sc.Deck(), sc.PE(), err)
		}
		pt := SweepPoint{
			Index:   i,
			Deck:    sc.Deck(),
			PEs:     sc.PE(),
			Seconds: time.Since(t0).Seconds(),
			Result:  res,
		}
		if op == SweepPredict {
			pt.Model = sc.ModelChoice().String()
		}
		return pt, nil
	})
	if err != nil {
		return nil, modelErr("sweep", err)
	}

	sr := &SweepResult{
		Op:          op,
		Network:     s.m.NetworkName(),
		Parallelism: s.m.Parallelism(),
		Points:      points,
		WallSeconds: time.Since(start).Seconds(),
	}
	for _, pt := range points {
		sr.WorkSeconds += pt.Seconds
	}
	return sr, nil
}
