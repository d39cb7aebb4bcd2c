package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"krak/pkg/krak"
)

// runCalibrate implements `krak calibrate`: fit machine parameters
// (compute scale vs the ES45 baseline, effective latency, bandwidth,
// fixed overhead) to a timing dataset — either a measurement file
// (-data, "obs DECK PES SECONDS" lines) or self-generated runs of the
// machine under -machine-file / the machine flags (-synth). -model
// picks the timing-model form ("auto" cross-validates the whole zoo and
// reports a scoreboard; see `krak machines -forms`); -append folds a
// second measurement file into the fit with a drift check against the
// base fit. The fitted machine is reported with standard errors, R²,
// optional k-fold cross-validation (-folds), and as a ready-to-use
// machine file (-emit-machine writes it; every other subcommand accepts
// it via -machine-file).
func runCalibrate(args []string) error {
	fs := flag.NewFlagSet("krak calibrate", flag.ExitOnError)
	data := fs.String("data", "", "measurement file to fit (dataset/obs lines)")
	appendFile := fs.String("append", "", "fresh measurement file to fold into -data with a drift check")
	synth := fs.Bool("synth", false, "self-generate the dataset from the machine instead")
	synthOp := fs.String("synth-op", "simulate", "synthetic generator: simulate (noisy measured runs) or predict (noiseless model)")
	decks := fs.String("deck", "small", "comma-separated decks for -synth")
	pes := fs.String("pe", "2,4,8,16,32", "comma-separated processor counts for -synth")
	folds := fs.Int("folds", 0, "k-fold cross-validation folds (0 = off)")
	formName := fs.String("model", krak.FormAuto, "timing-model form: auto, linear, loglog, interact, piecewise")
	features := fs.String("features", "general-homo", "feature model: general-homo, general-het")
	emitMachine := fs.String("emit-machine", "", "write the fitted machine file here")
	writeData := fs.String("write-data", "", "write the (possibly synthesized) dataset here")
	asJSON := fs.Bool("json", false, "emit JSON")
	mf := addMachineFlags(fs, true)
	pf := addProfileFlags(fs)
	fs.Parse(args)
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	defer stopProf()

	if (*data == "") == !*synth {
		return fmt.Errorf("krak: calibrate needs exactly one dataset source: -data FILE or -synth")
	}
	if *appendFile != "" && *data == "" {
		return fmt.Errorf("krak: -append extends a stored dataset; it needs -data FILE")
	}
	model, err := krak.ParseModel(*features)
	if err != nil {
		return err
	}
	m, err := mf.machine()
	if err != nil {
		return err
	}
	sc, err := krak.NewScenario(krak.WithModel(model))
	if err != nil {
		return err
	}
	s, err := krak.NewSession(m, sc)
	if err != nil {
		return err
	}

	var ds *krak.Dataset
	if *data != "" {
		src, err := os.ReadFile(*data)
		if err != nil {
			return err
		}
		if ds, err = krak.ParseDataset(src); err != nil {
			return err
		}
	} else {
		op, err := krak.ParseSweepOp(*synthOp)
		if err != nil {
			return err
		}
		peList, err := parseIntList("pe", *pes)
		if err != nil {
			return err
		}
		var deckList []string
		for _, d := range strings.Split(*decks, ",") {
			if d = strings.TrimSpace(d); d != "" {
				deckList = append(deckList, d)
			}
		}
		if ds, err = s.SynthesizeDataset(context.Background(), op, deckList, peList); err != nil {
			return err
		}
	}
	if *writeData != "" {
		if err := os.WriteFile(*writeData, ds.Format(), 0o644); err != nil {
			return err
		}
	}

	opt := krak.CalibrateOptions{Folds: *folds, Form: *formName}
	var cr *krak.CalibrationResult
	if *appendFile != "" {
		src, err := os.ReadFile(*appendFile)
		if err != nil {
			return err
		}
		fresh, err := krak.ParseDataset(src)
		if err != nil {
			return err
		}
		cr, err = s.CalibrateAppend(context.Background(), ds, fresh, opt)
		if err != nil {
			return err
		}
	} else if cr, err = s.Calibrate(context.Background(), ds, opt); err != nil {
		return err
	}
	if *emitMachine != "" {
		if err := os.WriteFile(*emitMachine, krak.FormatMachineFile(cr.Fitted), 0o644); err != nil {
			return err
		}
	}
	if *asJSON {
		return printJSON(cr)
	}
	fmt.Print(cr.Render())
	return nil
}

// runMachines implements `krak machines`: the interconnect presets with
// their serving fingerprints (the identity GET /v1/machines/{fp} and
// the calibration registry key histories by), and with -forms the
// calibration model-form zoo.
func runMachines(args []string) error {
	fs := flag.NewFlagSet("krak machines", flag.ExitOnError)
	forms := fs.Bool("forms", false, "list the calibration model forms instead")
	asJSON := fs.Bool("json", false, "emit JSON")
	fs.Parse(args)

	if *forms {
		if *asJSON {
			return printJSON(krak.ModelForms())
		}
		fmt.Printf("%-10s %-6s %s\n", "FORM", "COEFFS", "DESCRIPTION")
		for _, f := range krak.ModelForms() {
			fmt.Printf("%-10s %-6d %s\n", f.Name, f.Coeffs, f.Description)
		}
		return nil
	}

	type entry struct {
		Interconnect string `json:"interconnect"`
		Network      string `json:"network"`
		Fingerprint  string `json:"fingerprint"`
	}
	var out []entry
	for _, mi := range krak.ListMachines() {
		spec := krak.MachineSpec{Interconnect: mi.Interconnect}
		out = append(out, entry{
			Interconnect: mi.Interconnect,
			Network:      mi.Network,
			Fingerprint:  spec.Normalized().Fingerprint(),
		})
	}
	if *asJSON {
		return printJSON(out)
	}
	fmt.Printf("%-12s %-16s %s\n", "INTERCONNECT", "NETWORK", "FINGERPRINT")
	for _, e := range out {
		fmt.Printf("%-12s %-16s %s\n", e.Interconnect, e.Network, e.Fingerprint)
	}
	return nil
}
