package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"krak/internal/compare"
	"krak/internal/engine"
	"krak/pkg/krak"
)

// runCompare sweeps one scenario across a set of machines — the
// checked-in machines/ catalog, ad-hoc machine files, or directories of
// them — and reports each machine's scaling curve, knee, and crossover
// against the baseline. -scenario is an alias for -deck, so the paper's
// headline question reads naturally:
//
//	krak compare -scenario medium -machines machines/
//
// --json output is byte-identical to POST /v1/compare for the same
// request (CI's compare-smoke job diffs the two).
func runCompare(args []string) error {
	fs := flag.NewFlagSet("krak compare", flag.ExitOnError)
	var deck string
	fs.StringVar(&deck, "deck", "medium", "deck to sweep: small, medium, large, figure2")
	fs.StringVar(&deck, "scenario", "medium", "alias for -deck")
	machines := fs.String("machines", "machines", "comma-separated machine files and/or directories of *"+compare.MachineFileExt+" files")
	pes := fs.String("pe", "", "comma-separated processor counts (default 16,32,...,1024)")
	op := fs.String("op", "predict", "operation per grid point: predict, simulate")
	modelName := fs.String("model", "", "model for predict points (default general-homo)")
	parter := fs.String("partitioner", "", "partitioner for simulate points (default multilevel)")
	iters := fs.Int("iterations", 0, "iterations per simulate point (0 = machine repeats)")
	baseline := fs.String("baseline", "", "baseline machine name (default "+compare.DefaultBaselineName+" if present, else the first machine)")
	knee := fs.Float64("knee", compare.DefaultKneeEfficiency, "parallel-efficiency threshold defining the knee, in (0, 1]")
	quick := fs.Bool("quick", false, "scaled-down decks on every machine")
	parallel := fs.Int("parallel", 0, "worker-pool width (0 = number of CPUs)")
	asJSON := fs.Bool("json", false, "emit JSON")
	pf := addProfileFlags(fs)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	if *parallel < 0 {
		return fmt.Errorf("krak: -parallel must be >= 0 (0 = number of CPUs), got %d", *parallel)
	}
	var paths []string
	for _, p := range strings.Split(*machines, ",") {
		if p = strings.TrimSpace(p); p != "" {
			paths = append(paths, p)
		}
	}
	specs, err := compare.LoadPaths(paths)
	if err != nil {
		return err
	}
	if *quick {
		for i := range specs {
			specs[i].Quick = true
		}
	}
	req := compare.Request{
		Op:             *op,
		Deck:           deck,
		Model:          *modelName,
		Partitioner:    *parter,
		Iterations:     *iters,
		Baseline:       *baseline,
		KneeEfficiency: *knee,
		Machines:       specs,
	}
	if *pes != "" {
		if req.PEs, err = parseIntList("pe", *pes); err != nil {
			return err
		}
	}

	rep, err := compare.Run(context.Background(), req,
		compare.NewBuilder(krak.NewSharedArtifacts()), engine.New(*parallel))
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(rep)
	}
	fmt.Print(rep.Render())
	return nil
}
