package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"krak/pkg/krak"
)

// FuzzDecodeRequest asserts the no-panic contract of the server's JSON
// request decoding and validation: any body POSTed at the three wire
// types either decodes into a valid request or is rejected with an
// error — never a panic. Validation goes all the way through
// Scenario()/Grid() construction (the full pre-compute path a request
// travels before any work is scheduled). Checked-in seeds live in
// testdata/fuzz/FuzzDecodeRequest; run with
//
//	go test -fuzz FuzzDecodeRequest ./internal/server
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"deck":"small","pes":16}`,
		`{"deck":"medium","pes":128,"model":"mesh-specific","machine":{"interconnect":"gige","seed":7,"quick":true}}`,
		`{"pes":-1}`,
		`{"pes":999999999999999999999}`,
		`{"deck":"large","machine":{"repeats":-3,"serialize_sends":true}}`,
		`{"iterations":2,"partitioner":"rcb"}`,
		`{"op":"simulate","decks":["small","medium"],"pes":[4,8],"iterations":1}`,
		`{"decks":[],"pes":[]}`,
		`{"decks":["small"],"pes":[0]}`,
		`{"unknown_field":true}`,
		`{"deck":4}`,
		`[1,2,3]`,
		`null`,
		`{} {}`,
		"\x00\xff",
		strings.Repeat(`{"deck":`, 100),
		`{"machine":{"file":"interconnect gige\nseed 3\n"}}`,
		`{"machine":{"network":{"segments":[{"min_bytes":0,"latency_us":5,"bandwidth_mbs":100}]},"compute_scale":1.5}}`,
		`{"machine":{"file":"network x\nsegment 64 1 1\n"}}`,
		`{"dataset":"obs small 2 0.05\nobs small 4 0.03\n","folds":2}`,
		`{"synth":{"op":"predict","decks":["small"],"pes":[2,4]}}`,
		`{"observations":[{"deck":"small","pes":2,"seconds":-1}]}`,
		`{"dataset":"obs small 2 0.05\n","form":"piecewise","folds":3}`,
		`{"dataset":"obs small 2 0.05\n","form":"no-such-form"}`,
		`{"fingerprint":"abc123","dataset":"obs small 2 0.05\n","folds":2,"form":"auto"}`,
		`{"fingerprint":"","observations":[{"deck":"small","pes":4,"seconds":0.1}],"form":"loglog"}`,
		`{"fingerprint":"abc","dataset":"obs a 2 1\n","observations":[{"deck":"a","pes":2,"seconds":1}]}`,
		`{"result":{"schema":"krak.calibration/v1","observations":2,"model":"general-homo","form":"linear","fitted_fingerprint":"abc"},"dataset":"obs small 2 0.05\n"}`,
		`{"result":{"schema":"krak.wrong/v9"}}`,
		`{"result":null}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// Decode through the real handler plumbing (MaxBytesReader,
		// DisallowUnknownFields, trailing-data check), then validate:
		// everything a request passes through before compute.
		var pr krak.PredictRequest
		if decodeBytes(t, body, &pr) == nil {
			if _, err := pr.Scenario(); err == nil {
				n := pr.Normalized()
				if n.Deck == "" || n.PEs <= 0 {
					t.Fatalf("valid predict request normalized badly: %+v", n)
				}
				// Specs without an embedded file or custom network
				// normalize to an explicit interconnect; file-bearing specs
				// stay raw until Resolved, and a custom network supersedes
				// (and clears) the preset.
				if n.Machine.File == "" && n.Machine.Network == nil && n.Machine.Interconnect == "" {
					t.Fatalf("valid predict request normalized badly: %+v", n)
				}
			}
			// The machine-resolution path a request travels in a handler:
			// either a typed error, or a spec whose normalization is
			// idempotent — renormalizing must not move the fingerprint the
			// serving caches key on.
			if ms, err := pr.Machine.Resolved(); err == nil {
				norm := ms.Normalized()
				if norm.Normalized().Fingerprint() != norm.Fingerprint() {
					t.Fatalf("normalization is not idempotent for %+v", ms)
				}
			}
		}
		var sr krak.SimulateRequest
		if decodeBytes(t, body, &sr) == nil {
			sr.Scenario()
		}
		var wr krak.SweepRequest
		if decodeBytes(t, body, &wr) == nil {
			if _, grid, err := wr.Grid(); err == nil {
				if len(grid) == 0 || len(grid) > krak.MaxSweepPoints {
					t.Fatalf("valid sweep request built %d points", len(grid))
				}
			}
		}
		var cr krak.CalibrateRequest
		if decodeBytes(t, body, &cr) == nil {
			// Validation without compute: normalization, scenario
			// construction, and machine resolution must never panic.
			cr.Normalized()
			cr.Scenario()
			cr.Machine.Resolved()
		}
		var ar krak.AppendRequest
		if decodeBytes(t, body, &ar) == nil {
			ar.Normalized()
			ar.Scenario()
			// Fresh either parses into a bounded dataset or rejects with
			// ErrCalibration; both-sources and no-source bodies must hit
			// the exactly-one rule, not a panic.
			if ds, err := ar.Fresh(); err == nil && (ds == nil || len(ds.Observations) == 0) {
				t.Fatalf("append request accepted an empty fresh dataset: %+v", ar)
			}
			ar.Machine.Resolved()
		}
		var rr krak.RegisterMachineRequest
		if decodeBytes(t, body, &rr) == nil && rr.Result != nil {
			// Registered results are re-rendered into history bodies; the
			// marshal round trip must never panic, and the schema stamp
			// must survive it.
			if b, err := krak.RenderJSON(rr.Result); err == nil {
				var back krak.CalibrationResult
				if err := back.UnmarshalJSON(b); err != nil {
					t.Fatalf("registered result does not round-trip: %v", err)
				}
			}
		}
	})
}

// decodeBytes runs the handler's decode path against a raw body.
func decodeBytes(t *testing.T, body []byte, v any) error {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(string(body)))
	return decode(httptest.NewRecorder(), r, v)
}
