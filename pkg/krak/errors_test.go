package krak

import (
	"context"
	"errors"
	"io"
	"math"
	"testing"
)

// TestTypedErrors is the façade's error contract: every typed sentinel
// must come back, errors.Is-matchable, from the API paths documented to
// return it.
func TestTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		do   func() error
		want error
	}{
		{"unknown deck", func() error {
			_, err := NewScenario(WithDeck("doom"))
			return err
		}, ErrUnknownDeck},
		{"bad pe zero", func() error {
			_, err := NewScenario(WithPE(0))
			return err
		}, ErrBadPE},
		{"bad pe negative", func() error {
			_, err := NewScenario(WithPE(-8))
			return err
		}, ErrBadPE},
		{"bad calibration pe", func() error {
			_, err := NewScenario(WithCalibrationPEs(2, -4))
			return err
		}, ErrBadPE},
		{"unknown model option", func() error {
			_, err := NewScenario(WithModel(Model(99)))
			return err
		}, ErrUnknownModel},
		{"unknown model spelling", func() error {
			_, err := ParseModel("clairvoyant")
			return err
		}, ErrUnknownModel},
		{"unknown partitioner", func() error {
			_, err := NewScenario(WithPartitioner("guesswork"))
			return err
		}, ErrUnknownPartitioner},
		{"unknown interconnect", func() error {
			_, err := NewMachine(WithInterconnect("tin-cans"))
			return err
		}, ErrUnknownInterconnect},
		{"unknown interconnect via spec", func() error {
			_, err := NewMachine(MachineSpec{Interconnect: "tin-cans"}.Options()...)
			return err
		}, ErrUnknownInterconnect},
		{"unknown experiment", func() error {
			s := mustQuickSession(t)
			_, err := s.Experiment("table99")
			return err
		}, ErrUnknownExperiment},
		{"unknown experiment in batch", func() error {
			s := mustQuickSession(t)
			_, err := s.Experiments(context.Background(), []string{"table1", "table99"})
			return err
		}, ErrUnknownExperiment},
		{"bad iterations", func() error {
			_, err := NewScenario(WithIterations(0))
			return err
		}, ErrBadOption},
		{"bad steps", func() error {
			_, err := NewScenario(WithSteps(-1))
			return err
		}, ErrBadOption},
		{"bad ranks", func() error {
			_, err := NewScenario(WithRanks(0))
			return err
		}, ErrBadOption},
		{"bad deck dims", func() error {
			_, err := NewScenario(WithDeckDims(0, 10))
			return err
		}, ErrBadOption},
		{"bad progress interval", func() error {
			_, err := NewScenario(WithHydroProgress(0, func(HydroTick) {}))
			return err
		}, ErrBadOption},
		{"bad repeats", func() error {
			_, err := NewMachine(WithRepeats(0))
			return err
		}, ErrBadOption},
		{"bad parallelism", func() error {
			_, err := NewMachine(WithParallelism(-2))
			return err
		}, ErrBadOption},
		{"nil machine session", func() error {
			_, err := NewSession(nil, &Scenario{})
			return err
		}, ErrBadOption},
		{"nil scenario session", func() error {
			m, err := NewMachine(WithQuick())
			if err != nil {
				return err
			}
			_, err = NewSession(m, nil)
			return err
		}, ErrBadOption},
		{"bad sweep op", func() error {
			_, err := ParseSweepOp("meditate")
			return err
		}, ErrBadOption},
		{"oversized sweep request", func() error {
			pes := make([]int, MaxSweepPoints+1)
			for i := range pes {
				pes[i] = i + 1
			}
			_, _, err := SweepRequest{Decks: []string{"small"}, PEs: pes}.Grid()
			return err
		}, ErrBadOption},
		{"bad deck spec", func() error {
			_, err := NewScenario(WithDeckSpec([]byte("grid nope\n")))
			return err
		}, ErrBadDeckSpec},
		{"bad machine file", func() error {
			_, err := ParseMachineFile([]byte("warp-drive on\n"))
			return err
		}, ErrBadMachineSpec},
		{"bad machine file via LoadMachine", func() error {
			_, err := LoadMachine([]byte("interconnect tokenring\n"))
			return err
		}, ErrBadMachineSpec},
		{"empty custom network", func() error {
			_, err := NewMachine(WithNetworkSpec(NetworkSpec{}))
			return err
		}, ErrBadMachineSpec},
		{"bad network segment via spec", func() error {
			ns := &NetworkSpec{Segments: []SegmentSpec{{MinBytes: 0, LatencyUS: -4}}}
			_, err := NewMachine(MachineSpec{Network: ns}.Options()...)
			return err
		}, ErrBadMachineSpec},
		{"bad embedded machine file", func() error {
			_, err := MachineSpec{File: "segment 0 1 1\n"}.Resolved()
			return err
		}, ErrBadMachineSpec},
		{"bad compute scale", func() error {
			_, err := NewMachine(WithComputeScale(0))
			return err
		}, ErrBadOption},
		{"bad dataset text", func() error {
			_, err := ParseDataset([]byte("obs small 2 minus\n"))
			return err
		}, ErrCalibration},
		{"empty calibration dataset", func() error {
			s := mustQuickSession(t)
			_, err := s.Calibrate(context.Background(), &Dataset{}, CalibrateOptions{})
			return err
		}, ErrCalibration},
		{"calibration unknown deck", func() error {
			s := mustQuickSession(t)
			ds := &Dataset{Observations: []Observation{{Deck: "mega", PEs: 2, Seconds: 1}}}
			_, err := s.Calibrate(context.Background(), ds, CalibrateOptions{})
			return err
		}, ErrCalibration},
		{"calibration bad folds", func() error {
			s := mustQuickSession(t)
			ds := &Dataset{Observations: []Observation{{Deck: "small", PEs: 2, Seconds: 1}}}
			_, err := s.Calibrate(context.Background(), ds, CalibrateOptions{Folds: 7})
			return err
		}, ErrCalibration},
		{"calibration mesh-specific session", func() error {
			m, err := NewMachine(WithQuick())
			if err != nil {
				return err
			}
			sc, err := NewScenario(WithModel(MeshSpecific))
			if err != nil {
				return err
			}
			s, err := NewSession(m, sc)
			if err != nil {
				return err
			}
			ds := &Dataset{Observations: []Observation{{Deck: "small", PEs: 2, Seconds: 1}}}
			_, err = s.Calibrate(context.Background(), ds, CalibrateOptions{})
			return err
		}, ErrCalibration},
		{"calibrate request without source", func() error {
			s := mustQuickSession(t)
			_, err := CalibrateRequest{}.Materialize(context.Background(), s)
			return err
		}, ErrCalibration},
		{"bad result schema", func() error {
			var r Result
			return r.UnmarshalJSON([]byte(`{"schema":"krak.result/v0","kind":"predict"}`))
		}, ErrSchema},
		{"bad sweep schema", func() error {
			var sr SweepResult
			return sr.UnmarshalJSON([]byte(`{"schema":"krak.sweep/v0"}`))
		}, ErrSchema},
		{"bad calibration schema", func() error {
			var cr CalibrationResult
			return cr.UnmarshalJSON([]byte(`{"schema":"krak.calibration/v0"}`))
		}, ErrSchema},
		{"undecodable result payload", func() error {
			var r Result
			return r.UnmarshalJSON([]byte(`{`))
		}, ErrSchema},
		{"undecodable sweep payload", func() error {
			var sr SweepResult
			return sr.UnmarshalJSON([]byte(`[]`))
		}, ErrSchema},
		{"undecodable calibration payload", func() error {
			var cr CalibrationResult
			return cr.UnmarshalJSON([]byte(`"nope"`))
		}, ErrSchema},
		{"unencodable result", func() error {
			_, err := RenderJSON(&Result{Kind: KindPredict, TotalSeconds: math.NaN()})
			return err
		}, ErrSchema},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.do()
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %q is not %q", err, tc.want)
			}
			// Every typed failure must carry the krak namespace so CLI
			// users can tell whose complaint it is.
			if msg := err.Error(); len(msg) < 5 || msg[:5] != "krak:" {
				t.Errorf("error %q does not start with \"krak:\"", msg)
			}
		})
	}
}

// TestCanceledContext covers the cancellation error path of both batch
// entry points: a pre-canceled context must surface context.Canceled,
// not a partial result.
func TestCanceledContext(t *testing.T) {
	s := mustQuickSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := s.Experiments(ctx, []string{"table1"}); !errors.Is(err, context.Canceled) {
		t.Errorf("Experiments error %v is not context.Canceled", err)
	} else if !errors.Is(err, ErrModel) {
		// The ErrModel wrap must not hide the cancellation, and vice versa.
		t.Errorf("Experiments error %v is not ErrModel", err)
	}

	sc, err := NewScenario(WithDeck("small"), WithPE(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sweep(ctx, SweepPredict, []*Scenario{sc}); !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep error %v is not context.Canceled", err)
	} else if !errors.Is(err, ErrModel) {
		t.Errorf("Sweep error %v is not ErrModel", err)
	}
}

// TestModelErrKeepsChain pins the modelErr wrapping shape: both ErrModel
// and the original cause stay errors.Is-matchable, and the message keeps
// the krak namespace prefix the CLI contract requires.
func TestModelErrKeepsChain(t *testing.T) {
	err := modelErr("deck", io.ErrUnexpectedEOF)
	if !errors.Is(err, ErrModel) {
		t.Errorf("modelErr result %v is not ErrModel", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("modelErr result %v lost its cause", err)
	}
	if msg := err.Error(); len(msg) < 5 || msg[:5] != "krak:" {
		t.Errorf("modelErr message %q does not start with \"krak:\"", msg)
	}
}

// mustQuickSession is quickSession without option plumbing, for error
// tests that only need a live session.
func mustQuickSession(t *testing.T) *Session {
	t.Helper()
	return quickSession(t)
}
