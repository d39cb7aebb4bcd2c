// Command krak is the single entry point to the Krak performance-model
// reproduction, built entirely on the public façade (pkg/krak). It unifies
// the former krak-model, krak-sim, krak-hydro, krak-part, and
// krak-experiments binaries as subcommands.
//
// Usage:
//
//	krak predict     -deck medium -pe 128 -model general-homo [--json]
//	krak simulate    -deck medium -pe 256 -iterations 5 [--json]
//	krak hydro       -w 80 -h 40 -steps 200 -ranks 4 [-deck-file deck.txt] [--json]
//	krak part        -deck small -pe 16 -algo rcb [-deck-file deck.txt] [--json]
//	krak sweep       -op predict -deck medium -pe 32,64,128,256 -parallel 8 [--json]
//	krak experiments -list | -run table6 | -write EXPERIMENTS.md -parallel 8 [--json]
//	krak compare     -scenario medium -machines machines/ -baseline es45-qsnet [--json]
//	krak calibrate   -data runs.txt -model auto -folds 5 [-append fresh.txt] | -synth -deck small -pe 2,4,8 [--json]
//	krak machines    [-forms] [--json]
//	krak serve       -addr :8080 -parallel 8 -cache-size 1024 [-quick]
//	krak gateway     -addr :8090 -replica http://127.0.0.1:8081,http://127.0.0.1:8082 [-quick]
//
// sweep and experiments fan their work out over the machine's worker pool
// (-parallel N, default as wide as the hardware). experiments output is
// byte-identical at every parallelism level, as is the model/simulator
// content of every sweep point; sweep's timing fields (the wall/work
// summary and each point's seconds) naturally vary run to run.
//
// serve runs the same operations as a long-lived HTTP service
// (see internal/server); its /v1/predict responses are byte-identical to
// `krak predict --json` for the same scenario.
//
// -deck-file loads a textual deck instead of a standard one. The format
// is line-oriented ('#' comments): "deck NAME", "grid W H", optional
// "detonator X Y", then one of "layered" (Table 2 radial bands),
// "uniform MAT", or "cells" followed by H rows of W one-character
// material codes (h|a|f|o or 0-3), top row first.
//
// -machine-file (every machine-taking subcommand) loads a declarative
// machine file: "machine NAME", "interconnect qsnet|gige|infiniband" or
// a custom "network NAME" with "segment MINBYTES LATENCY_US BW_MBS"
// lines, an optional "topology fat-tree HOPLAT_US RADIX" /
// "topology dragonfly HOPLAT_US GROUPSIZE" / "topology torus HOPLAT_US
// [X Y Z]" stanza refining the collective models, "compute-scale F",
// "seed N", "repeats N", "quick", "serialize-sends". `krak calibrate
// -emit-machine` writes one from fitted parameters, closing the
// measure -> calibrate -> predict loop. The machines/ directory at the
// repo root is a checked-in catalog of such files spanning machine
// generations; `krak compare -machines machines/` sweeps them all.
//
// calibrate fits one of several timing-model forms (-model: linear,
// loglog, interact, piecewise, or auto to cross-validate the whole zoo
// and report a selection scoreboard; `krak machines -forms` lists them).
// -append folds a fresh measurement file into the -data fit with a
// drift check against the base fit's stderr band — the same check
// `krak serve` runs on POST /v1/calibrate/append for registered
// machines.
//
// Every subcommand also accepts -cpuprofile FILE and -memprofile FILE,
// writing pprof profiles of the invocation (see `make profile` for the
// canonical flagship-workload capture).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"krak/pkg/krak"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "predict":
		err = runPredict(os.Args[2:])
	case "simulate":
		err = runSimulate(os.Args[2:])
	case "hydro":
		err = runHydro(os.Args[2:])
	case "part":
		err = runPart(os.Args[2:])
	case "sweep":
		err = runSweep(os.Args[2:])
	case "experiments":
		err = runExperiments(os.Args[2:])
	case "compare":
		err = runCompare(os.Args[2:])
	case "calibrate":
		err = runCalibrate(os.Args[2:])
	case "machines":
		err = runMachines(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "gateway":
		err = runGateway(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "krak: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: krak <subcommand> [flags]

subcommands:
  predict      evaluate the analytic performance model
  simulate     run the discrete-event cluster simulator ("measure")
  hydro        run the Lagrangian hydrodynamics mini-app
  part         partition a deck and report quality
  sweep        evaluate a deck x PE grid concurrently
  experiments  regenerate the paper's tables and figures
  compare      sweep one scenario across a catalog of machines
  calibrate    fit machine parameters to measured timings
  machines     list machine presets, fingerprints, and model forms
  serve        run the HTTP prediction service
  gateway      route requests across serve replicas with failover, answering
               repeat predict/simulate questions from its own cache

Run "krak <subcommand> -h" for the subcommand's flags. All subcommands
accept --json for machine-readable output, and subcommands that take a
machine accept -machine-file (a declarative machine spec; see
"krak calibrate -h").
`)
}

// machineFlags declares the flags shared by every subcommand that needs a
// Machine and builds it. -machine-file loads a declarative machine file
// (see krak calibrate -h for the format) as the base configuration;
// explicitly set flags override the file's directives.
type machineFlags struct {
	fs          *flag.FlagSet
	machineFile *string
	net         *string
	seed        *uint64
	quick       *bool
	serialize   *bool
	parallel    *int
}

func addMachineFlags(fs *flag.FlagSet, withSerialize bool) *machineFlags {
	mf := &machineFlags{
		fs:          fs,
		machineFile: fs.String("machine-file", "", "machine file defining the platform (flags override its directives)"),
		net:         fs.String("net", "qsnet", "interconnect: qsnet, gige, infiniband"),
		seed:        fs.Uint64("seed", 1, "partitioner seed"),
		quick:       fs.Bool("quick", false, "scaled-down decks and calibrations"),
		parallel:    fs.Int("parallel", 0, "worker-pool width (0 = number of CPUs)"),
	}
	if withSerialize {
		mf.serialize = fs.Bool("serialize-sends", false, "disable message overlap")
	}
	return mf
}

func (mf *machineFlags) machine() (*krak.Machine, error) {
	set := map[string]bool{}
	mf.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var opts []krak.MachineOption
	if *mf.machineFile != "" {
		src, err := os.ReadFile(*mf.machineFile)
		if err != nil {
			return nil, err
		}
		spec, err := krak.ParseMachineFile(src)
		if err != nil {
			return nil, err
		}
		// Only flags the user explicitly set override the file's
		// directives — including explicit negations like -quick=false.
		if set["net"] {
			spec.Interconnect = *mf.net
			spec.Network = nil
		}
		if set["seed"] {
			spec.Seed = *mf.seed
		}
		if set["quick"] {
			spec.Quick = *mf.quick
		}
		if mf.serialize != nil && set["serialize-sends"] {
			spec.SerializeSends = *mf.serialize
		}
		opts = spec.Options()
	} else {
		opts = []krak.MachineOption{
			krak.WithInterconnect(*mf.net),
			krak.WithSeed(*mf.seed),
		}
		if *mf.quick {
			opts = append(opts, krak.WithQuick())
		}
		if mf.serialize != nil && *mf.serialize {
			opts = append(opts, krak.WithSerializedSends())
		}
	}
	if *mf.parallel < 0 {
		return nil, fmt.Errorf("krak: -parallel must be >= 0 (0 = number of CPUs), got %d", *mf.parallel)
	}
	if *mf.parallel > 0 {
		opts = append(opts, krak.WithParallelism(*mf.parallel))
	}
	return krak.NewMachine(opts...)
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("krak: bad -%s entry %q (want positive integers)", flagName, part)
		}
		if len(out) >= krak.MaxSweepPoints {
			return nil, fmt.Errorf("krak: -%s has more than %d entries", flagName, krak.MaxSweepPoints)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("krak: -%s is empty", flagName)
	}
	return out, nil
}

// printJSON prints v as --json output: krak.RenderJSON's bytes, the
// same ones `krak serve` answers with.
func printJSON(v any) error {
	out, err := krak.RenderJSON(v)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(out)
	return err
}

// emit prints a result as text or JSON.
func emit(res *krak.Result, asJSON bool) error {
	if asJSON {
		return printJSON(res)
	}
	fmt.Print(res.Render())
	return nil
}

func runPredict(args []string) error {
	fs := flag.NewFlagSet("krak predict", flag.ExitOnError)
	deck := fs.String("deck", "medium", "deck: small, medium, large, figure2")
	pe := fs.Int("pe", 128, "processor count")
	modelName := fs.String("model", "general-homo", "model: general-homo, general-het, mesh-specific")
	asJSON := fs.Bool("json", false, "emit JSON")
	mf := addMachineFlags(fs, false)
	pf := addProfileFlags(fs)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	sc, err := krak.PredictRequest{Deck: *deck, PEs: *pe, Model: *modelName}.Scenario()
	if err != nil {
		return err
	}
	m, err := mf.machine()
	if err != nil {
		return err
	}
	s, err := krak.NewSession(m, sc)
	if err != nil {
		return err
	}
	res, err := s.Predict()
	if err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("krak simulate", flag.ExitOnError)
	deck := fs.String("deck", "medium", "deck: small, medium, large, figure2")
	pe := fs.Int("pe", 128, "processor count")
	iters := fs.Int("iterations", 5, "iterations to simulate (0 = machine repeats)")
	parter := fs.String("partitioner", "multilevel", "multilevel, rcb, sfc, strips, random")
	asJSON := fs.Bool("json", false, "emit JSON")
	mf := addMachineFlags(fs, true)
	pf := addProfileFlags(fs)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	sc, err := krak.SimulateRequest{Deck: *deck, PEs: *pe, Iterations: *iters, Partitioner: *parter}.Scenario()
	if err != nil {
		return err
	}
	m, err := mf.machine()
	if err != nil {
		return err
	}
	s, err := krak.NewSession(m, sc)
	if err != nil {
		return err
	}
	res, err := s.Simulate()
	if err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runHydro(args []string) error {
	fs := flag.NewFlagSet("krak hydro", flag.ExitOnError)
	w := fs.Int("w", 40, "grid width (cells)")
	h := fs.Int("h", 20, "grid height (cells)")
	deckFile := fs.String("deck-file", "", "textual deck file (grid/layered/uniform/cells directives; overrides -w/-h)")
	steps := fs.Int("steps", 100, "timesteps to run")
	ranks := fs.Int("ranks", 1, "parallel goroutine ranks (1 = serial)")
	report := fs.Int("report", 20, "diagnostics interval in steps, 0 to disable (serial only)")
	asJSON := fs.Bool("json", false, "emit JSON")
	pf := addProfileFlags(fs)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	m := krak.QsNetCluster()
	deckOpt := krak.WithDeckDims(*w, *h)
	if *deckFile != "" {
		src, err := os.ReadFile(*deckFile)
		if err != nil {
			return err
		}
		deckOpt = krak.WithDeckSpec(src)
	}
	opts := []krak.ScenarioOption{
		deckOpt,
		krak.WithSteps(*steps),
		krak.WithRanks(*ranks),
	}
	if *report > 0 && *ranks <= 1 && !*asJSON {
		opts = append(opts, krak.WithHydroProgress(*report, func(tk krak.HydroTick) {
			fmt.Printf("cycle %4d  t=%.4f  dt=%.2e  burned=%4d  maxP=%8.3f  KE=%.4f  IE=%.4f\n",
				tk.Cycle, tk.Time, tk.DT, tk.BurnedCells, tk.MaxPressure, tk.KineticEnergy, tk.InternalEnergy)
		}))
	}
	sc, err := krak.NewScenario(opts...)
	if err != nil {
		return err
	}
	s, err := krak.NewSession(m, sc)
	if err != nil {
		return err
	}
	res, err := s.RunHydro()
	if err != nil {
		return err
	}
	return emit(res, *asJSON)
}

func runPart(args []string) error {
	fs := flag.NewFlagSet("krak part", flag.ExitOnError)
	deck := fs.String("deck", "small", "deck: small, medium, large, figure2")
	deckFile := fs.String("deck-file", "", "textual deck file (overrides -deck)")
	pe := fs.Int("pe", 16, "processor count")
	algo := fs.String("algo", "multilevel", "multilevel, rcb, sfc, strips, random")
	showMap := fs.Bool("map", true, "render the subgrid map")
	asJSON := fs.Bool("json", false, "emit JSON")
	mf := addMachineFlags(fs, false)
	pf := addProfileFlags(fs)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	m, err := mf.machine()
	if err != nil {
		return err
	}
	deckOpt := krak.WithDeck(*deck)
	if *deckFile != "" {
		src, err := os.ReadFile(*deckFile)
		if err != nil {
			return err
		}
		deckOpt = krak.WithDeckSpec(src)
	}
	sc, err := krak.NewScenario(deckOpt, krak.WithPE(*pe), krak.WithPartitioner(*algo))
	if err != nil {
		return err
	}
	s, err := krak.NewSession(m, sc)
	if err != nil {
		return err
	}
	res, err := s.Partition()
	if err != nil {
		return err
	}
	if !*showMap && res.Partition != nil {
		res.Partition.Map = ""
	}
	return emit(res, *asJSON)
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("krak sweep", flag.ExitOnError)
	op := fs.String("op", "predict", "operation per grid point: predict, simulate")
	decks := fs.String("deck", "medium", "comma-separated decks: small, medium, large, figure2")
	pes := fs.String("pe", "32,64,128,256", "comma-separated processor counts")
	modelName := fs.String("model", "general-homo", "model for predict points: general-homo, general-het, mesh-specific")
	parter := fs.String("partitioner", "multilevel", "multilevel, rcb, sfc, strips, random")
	iters := fs.Int("iterations", 0, "iterations per simulate point (0 = machine repeats)")
	asJSON := fs.Bool("json", false, "emit JSON")
	mf := addMachineFlags(fs, true)
	pf := addProfileFlags(fs)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	var deckList []string
	for _, deck := range strings.Split(*decks, ",") {
		if deck = strings.TrimSpace(deck); deck != "" {
			deckList = append(deckList, deck)
		}
	}
	if len(deckList) == 0 {
		return fmt.Errorf("krak: empty sweep grid")
	}
	peList, err := parseIntList("pe", *pes)
	if err != nil {
		return err
	}
	// The grid is built exactly as POST /v1/sweep builds it: the cross
	// product of decks and PE counts, decks major, under the same
	// MaxSweepPoints bound.
	sweepOp, grid, err := krak.SweepRequest{
		Op:          *op,
		Decks:       deckList,
		PEs:         peList,
		Model:       *modelName,
		Partitioner: *parter,
		Iterations:  *iters,
	}.Grid()
	if err != nil {
		return err
	}
	m, err := mf.machine()
	if err != nil {
		return err
	}
	sc, err := krak.NewScenario()
	if err != nil {
		return err
	}
	s, err := krak.NewSession(m, sc)
	if err != nil {
		return err
	}
	sr, err := s.Sweep(context.Background(), sweepOp, grid)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(sr)
	}
	fmt.Print(sr.Render())
	return nil
}

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("krak experiments", flag.ExitOnError)
	list := fs.Bool("list", false, "list available experiments")
	run := fs.String("run", "", "run a single experiment by id (default: all)")
	write := fs.String("write", "", "write results as markdown to this file")
	asJSON := fs.Bool("json", false, "emit JSON")
	mf := addMachineFlags(fs, false)
	pf := addProfileFlags(fs)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	if *list {
		if *asJSON {
			return printJSON(krak.ListExperiments())
		}
		for _, e := range krak.ListExperiments() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return nil
	}

	m, err := mf.machine()
	if err != nil {
		return err
	}
	sc, err := krak.NewScenario()
	if err != nil {
		return err
	}
	s, err := krak.NewSession(m, sc)
	if err != nil {
		return err
	}

	var ids []string
	if *run != "" {
		ids = []string{*run}
	}

	// nil ids regenerates the whole registry; the batch fans out over the
	// machine's worker pool (-parallel) with byte-identical output.
	results, err := s.Experiments(context.Background(), ids)
	if err != nil {
		return err
	}
	if !*asJSON {
		for _, res := range results {
			fmt.Print(res.Render())
			fmt.Println()
		}
	}
	if *asJSON {
		if err := printJSON(results); err != nil {
			return err
		}
	}
	if *write != "" {
		if err := os.WriteFile(*write, []byte(experimentsMarkdown(results, *mf.quick)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *write)
	}
	return nil
}

// experimentsMarkdown renders experiment results as the EXPERIMENTS.md
// document the old krak-experiments binary produced.
func experimentsMarkdown(results []*krak.Result, quick bool) string {
	var md strings.Builder
	md.WriteString("# EXPERIMENTS — paper vs reproduction\n\n")
	md.WriteString("Generated by `krak experiments")
	if quick {
		md.WriteString(" -quick")
	}
	md.WriteString("`. The \"measured\" platform is the discrete-event cluster\n")
	md.WriteString("simulator standing in for the paper's AlphaServer ES45 / QsNet-I machine\n")
	md.WriteString("(see docs/MODEL.md for the substitution table); predictions come from the\n")
	md.WriteString("analytic model. Match the *shapes*, not absolute numbers.\n\n")
	for _, res := range results {
		e := res.Experiment
		if e == nil {
			continue
		}
		fmt.Fprintf(&md, "## %s — %s\n\n", e.ID, e.Title)
		if len(e.Header) > 0 {
			fmt.Fprintf(&md, "| %s |\n", strings.Join(e.Header, " | "))
			sep := make([]string, len(e.Header))
			for i := range sep {
				sep[i] = "---"
			}
			fmt.Fprintf(&md, "| %s |\n", strings.Join(sep, " | "))
			for _, row := range e.Rows {
				fmt.Fprintf(&md, "| %s |\n", strings.Join(row, " | "))
			}
			md.WriteString("\n")
		}
		if e.Text != "" {
			fmt.Fprintf(&md, "```\n%s```\n\n", e.Text)
		}
		if e.Notes != "" {
			fmt.Fprintf(&md, "%s\n\n", e.Notes)
		}
	}
	return md.String()
}
