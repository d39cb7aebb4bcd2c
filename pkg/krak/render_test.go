package krak_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"krak/internal/compare"
	"krak/internal/engine"
	"krak/pkg/krak"
)

// TestRenderJSONMatchesMarshalIndent is RenderJSON's byte-identity
// oracle: for every kind of body the server and the CLI render, its
// bytes equal json.MarshalIndent(v, "", "  ") plus a newline, the call
// it replaced. The goldens pin a few rendered bodies; this pins the
// renderer itself, so a drift in the encoder or the indenter fails here
// for whichever body shape it breaks. The history's dataset text carries
// the bytes encoding/json escapes (quote, backslash, newline, <, >, &,
// U+2028), structural bytes between escaped quotes, and non-ASCII
// text, so they pass through the indenter inside a real body.
func TestRenderJSONMatchesMarshalIndent(t *testing.T) {
	ctx := context.Background()
	m, err := krak.NewMachine(krak.WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	session := func(opts ...krak.ScenarioOption) *krak.Session {
		t.Helper()
		sc, err := krak.NewScenario(opts...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := krak.NewSession(m, sc)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	must := func(v any, err error) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	base := session()
	op, grid, err := krak.SweepRequest{Decks: []string{"small"}, PEs: []int{2, 4}}.Grid()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := krak.ParseDataset([]byte("dataset lab\nobs small 2 0.052\nobs small 4 0.031\nobs small 8 0.021\nobs small 16 0.015\n"))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := base.Calibrate(ctx, ds, krak.CalibrateOptions{Folds: 2})
	if err != nil {
		t.Fatal(err)
	}
	cmp := compare.Request{Deck: "small", PEs: []int{2, 4}, Machines: []krak.MachineSpec{
		{Name: "qsnet", Quick: true},
		{Name: "gige <&>", Interconnect: "gige", Quick: true},
	}}

	const escapes = "# lab \"<a&b>: [1, {}]\" \\ \u2028 héllo 世界\nobs small 2 0.052\n"
	bodies := map[string]any{
		"predict":     must(session(krak.WithDeck("small"), krak.WithPE(16)).Predict()),
		"simulate":    must(session(krak.WithDeck("small"), krak.WithPE(4), krak.WithIterations(2)).Simulate()),
		"sweep":       must(base.Sweep(ctx, op, grid)),
		"compare":     must(compare.Run(ctx, cmp, compare.NewBuilder(nil), engine.New(0))),
		"calibrate":   cr,
		"history":     &krak.MachineHistory{Fingerprint: cr.FittedFingerprint, Versions: []krak.MachineVersion{{Version: 1, Dataset: escapes, Result: cr}}},
		"machines":    krak.ListMachines(),
		"experiments": krak.ListExperiments(),
		"experiment":  must(base.Experiment("table1")),
		"healthz":     map[string]any{"status": "ok", "uptime_s": 12.5, "requests": int64(3), "cache_len": int64(0)},
		"nil result":  (*krak.Result)(nil),
		"empty":       map[string]any{"a": []int{}, "b": map[string]int{}, "c": []any{map[string]any{}}},
	}
	for name, v := range bodies {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want = append(want, '\n')
		got, err := krak.RenderJSON(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: RenderJSON differs from MarshalIndent\n got: %q\nwant: %q", name, got, want)
		}
		if name == "history" && !bytes.Contains(got, []byte(`\"\u003ca\u0026b\u003e: [1, {}]\" \\ \u2028 héllo 世界\n`)) {
			t.Errorf("history: the escaped dataset text is missing from %s", got)
		}
		if len(got) != cap(got) {
			t.Errorf("%s: rendered %d bytes into a buffer of %d", name, len(got), cap(got))
		}
	}
}

// predictResult is the body of a quick small-deck /v1/predict answer.
func predictResult(tb testing.TB) *krak.Result {
	tb.Helper()
	m, err := krak.NewMachine(krak.WithQuick())
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := krak.NewScenario(krak.WithDeck("small"), krak.WithPE(16))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := krak.NewSession(m, sc)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := s.Predict()
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func BenchmarkRenderJSON(b *testing.B) {
	r := predictResult(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krak.RenderJSON(r); err != nil {
			b.Fatal(err)
		}
	}
}

// baseSession is a session on a quick machine with the default
// scenario.
func baseSession(tb testing.TB) *krak.Session {
	tb.Helper()
	m, err := krak.NewMachine(krak.WithQuick())
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := krak.NewScenario()
	if err != nil {
		tb.Fatal(err)
	}
	s, err := krak.NewSession(m, sc)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// sweepResult is the body of a 4-point quick predict /v1/sweep answer.
func sweepResult(tb testing.TB) *krak.SweepResult {
	tb.Helper()
	op, grid, err := krak.SweepRequest{Decks: []string{"small"}, PEs: []int{2, 4, 8, 16}}.Grid()
	if err != nil {
		tb.Fatal(err)
	}
	sr, err := baseSession(tb).Sweep(context.Background(), op, grid)
	if err != nil {
		tb.Fatal(err)
	}
	return sr
}

// historyResult is the body of a /v1/machines/{fingerprint} answer
// holding two versions of one quick calibration.
func historyResult(tb testing.TB) *krak.MachineHistory {
	tb.Helper()
	const text = "obs small 2 0.052\nobs small 4 0.031\nobs small 8 0.021\n"
	ds, err := krak.ParseDataset([]byte(text))
	if err != nil {
		tb.Fatal(err)
	}
	cr, err := baseSession(tb).Calibrate(context.Background(), ds, krak.CalibrateOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return &krak.MachineHistory{Fingerprint: cr.FittedFingerprint, Versions: []krak.MachineVersion{
		{Version: 1, Dataset: text, Result: cr},
		{Version: 2, Dataset: text, Result: cr},
	}}
}

func BenchmarkRenderJSONSweep(b *testing.B) {
	sr := sweepResult(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := krak.RenderJSON(sr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSchemaStamps: each answer type writes its schema stamp first,
// from a value as well as a pointer, and its UnmarshalJSON refuses a
// payload whose stamp is missing or another one with ErrSchema.
func TestSchemaStamps(t *testing.T) {
	for _, c := range []struct {
		schema string
		value  any
		decode func([]byte) error
	}{
		{krak.ResultSchema, krak.Result{Kind: krak.KindPredict}, new(krak.Result).UnmarshalJSON},
		{krak.SweepSchema, krak.SweepResult{}, new(krak.SweepResult).UnmarshalJSON},
		{krak.CalibrationSchema, krak.CalibrationResult{}, new(krak.CalibrationResult).UnmarshalJSON},
		{krak.MachineHistorySchema, krak.MachineHistory{}, new(krak.MachineHistory).UnmarshalJSON},
	} {
		b, err := json.Marshal(c.value)
		if err != nil {
			t.Fatal(err)
		}
		if prefix := `{"schema":"` + c.schema + `",`; !bytes.HasPrefix(b, []byte(prefix)) {
			t.Errorf("%T encodes as %s, want it to start with %s", c.value, b, prefix)
		}
		if err := c.decode(b); err != nil {
			t.Errorf("%s: its own encoding does not decode: %v", c.schema, err)
		}
		unstamped := append([]byte("{"), b[len(`{"schema":"`+c.schema+`",`):]...)
		for _, bad := range [][]byte{unstamped, bytes.Replace(b, []byte("/v1"), []byte("/v2"), 1)} {
			if err := c.decode(bad); !errors.Is(err, krak.ErrSchema) {
				t.Errorf("%s: decoding %s = %v, want ErrSchema", c.schema, bad, err)
			}
		}
	}
}
