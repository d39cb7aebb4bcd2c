package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"krak/internal/compare"
	"krak/internal/engine"
	"krak/pkg/krak"
)

// renderJSON produces the bytes `krak <subcommand> --json` prints and the
// replicas serve: two-space indent plus a trailing newline.
func renderJSON(v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// resolve applies the serving tier's spec resolution: expand an embedded
// file, force quick, normalize.
func resolve(ms krak.MachineSpec) (krak.MachineSpec, error) {
	r, err := ms.Resolved()
	if err != nil {
		return ms, err
	}
	r.Quick = true
	return r.Normalized(), nil
}

// refs builds what a replica should answer, through pkg/krak, on quick
// machines of its own — one per resolved spec, all sharing one artifact
// store, the way a replica's machine cache does — independent of the
// fleet under test.
type refs struct {
	ctx      context.Context
	pool     *engine.Pool
	sa       *krak.SharedArtifacts
	machines map[string]*krak.Machine
}

func newRefs(ctx context.Context) *refs {
	return &refs{ctx: ctx, pool: engine.New(0), sa: krak.NewSharedArtifacts(), machines: map[string]*krak.Machine{}}
}

// machine returns the machine for a resolved spec, building it once.
func (r *refs) machine(ms krak.MachineSpec) (*krak.Machine, error) {
	fp := ms.Fingerprint()
	if m, ok := r.machines[fp]; ok {
		return m, nil
	}
	m, err := krak.NewMachine(append(ms.Options(), krak.WithSharedArtifacts(r.sa))...)
	if err != nil {
		return nil, err
	}
	r.machines[fp] = m
	return m, nil
}

// session binds a scenario to the machine of an unresolved spec.
func (r *refs) session(ms krak.MachineSpec, scenario func() (*krak.Scenario, error)) (*krak.Session, error) {
	rs, err := resolve(ms)
	if err != nil {
		return nil, err
	}
	m, err := r.machine(rs)
	if err != nil {
		return nil, err
	}
	sc, err := scenario()
	if err != nil {
		return nil, err
	}
	return krak.NewSession(m, sc)
}

// render returns the exact body a replica should answer req with.
func (r *refs) render(req Request) ([]byte, error) {
	var v any
	var err error
	switch req.Kind {
	case KindPredict:
		var pr krak.PredictRequest
		if err = json.Unmarshal(req.Body, &pr); err != nil {
			return nil, err
		}
		var sess *krak.Session
		if sess, err = r.session(pr.Machine, pr.Scenario); err == nil {
			v, err = sess.Predict()
		}
	case KindSimWarm, KindSimCold:
		var sr krak.SimulateRequest
		if err = json.Unmarshal(req.Body, &sr); err != nil {
			return nil, err
		}
		var sess *krak.Session
		if sess, err = r.session(sr.Machine, sr.Scenario); err == nil {
			v, err = sess.Simulate()
		}
	case KindCompare:
		var cr compare.Request
		if err = json.Unmarshal(req.Body, &cr); err != nil {
			return nil, err
		}
		cr = cr.Normalized()
		for i, ms := range cr.Machines {
			if cr.Machines[i], err = resolve(ms); err != nil {
				return nil, err
			}
		}
		v, err = compare.Run(r.ctx, cr, r.machine, r.pool)
	case KindCalibrate:
		var cr krak.CalibrateRequest
		if err = json.Unmarshal(req.Body, &cr); err != nil {
			return nil, err
		}
		cr = cr.Normalized()
		var sess *krak.Session
		var ds *krak.Dataset
		if sess, err = r.session(cr.Machine, cr.Scenario); err == nil {
			if ds, err = cr.Materialize(r.ctx, sess); err == nil {
				v, err = sess.Calibrate(r.ctx, ds, krak.CalibrateOptions{Folds: cr.Folds, Form: cr.Form})
			}
		}
	default:
		return nil, fmt.Errorf("no reference for %s requests", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	return renderJSON(v)
}

// verifier checks a run's responses against references.
type verifier struct {
	*refs
	predict map[string][32]byte // canonical key -> reference body digest
	regen   cursor              // the workload's stream, replayed

	digests, bodies int // checks made, by kind
}

func newVerifier(ctx context.Context, regen Stream) *verifier {
	return &verifier{refs: newRefs(ctx), predict: map[string][32]byte{}, regen: cursor{st: regen}}
}

// check verifies every sample of the windows against its reference and
// marks mismatches; it returns a description of each mismatch. Predict
// bodies are checked by digest on every sample; other kinds are
// byte-compared on the kept sample (body returns ok for those).
func (v *verifier) check(body func(idx int) ([]byte, bool), windows ...[]sample) ([]string, error) {
	var samples []*sample
	for _, w := range windows {
		for i := range w {
			samples = append(samples, &w[i])
		}
	}
	slices.SortFunc(samples, func(a, b *sample) int { return a.idx - b.idx })
	var bad []string
	for _, s := range samples {
		req := v.regen.at(s.idx)
		if s.status != 200 {
			continue // already a failure; nothing to compare
		}
		var err error
		if req.Kind == KindPredict {
			v.digests++
			err = v.checkPredict(req, s.sum)
		} else if b, ok := body(s.idx); ok {
			v.bodies++
			err = v.checkBody(req, b)
		}
		if errors.Is(err, errMismatch) {
			s.mismatch = true
			bad = append(bad, fmt.Sprintf("request %d %s %s", s.idx, req.Path, req.Body))
		} else if err != nil {
			return bad, fmt.Errorf("building the reference for request %d: %w", s.idx, err)
		}
	}
	return bad, nil
}

var errMismatch = errors.New("response differs from its reference")

func (v *verifier) checkPredict(req Request, got [32]byte) error {
	var pr krak.PredictRequest
	if err := json.Unmarshal(req.Body, &pr); err != nil {
		return err
	}
	pr = pr.Normalized()
	ms, err := resolve(pr.Machine)
	if err != nil {
		return err
	}
	pr.Machine = ms
	key := pr.CanonicalKey()
	want, ok := v.predict[key]
	if !ok {
		b, err := v.render(req)
		if err != nil {
			return err
		}
		want = sha256.Sum256(b)
		v.predict[key] = want
	}
	if got != want {
		return errMismatch
	}
	return nil
}

func (v *verifier) checkBody(req Request, got []byte) error {
	if req.Kind == KindSweep {
		return v.checkSweep(req, got)
	}
	want, err := v.render(req)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errMismatch
	}
	return nil
}

// checkSweep decodes a sweep (its wall timings differ run to run) and
// compares every point's total_s with a reference simulation.
func (v *verifier) checkSweep(req Request, got []byte) error {
	var sw krak.SweepRequest
	if err := json.Unmarshal(req.Body, &sw); err != nil {
		return err
	}
	var res krak.SweepResult
	if err := json.Unmarshal(got, &res); err != nil {
		return errMismatch
	}
	ms, err := resolve(sw.Machine)
	if err != nil {
		return err
	}
	m, err := v.machine(ms)
	if err != nil {
		return err
	}
	_, grid, err := sw.Grid()
	if err != nil {
		return err
	}
	if len(res.Points) != len(grid) {
		return errMismatch
	}
	for i, sc := range grid {
		sess, err := krak.NewSession(m, sc)
		if err != nil {
			return err
		}
		want, err := sess.Simulate()
		if err != nil {
			return err
		}
		if res.Points[i].Result == nil || res.Points[i].Result.TotalSeconds != want.TotalSeconds {
			return errMismatch
		}
	}
	return nil
}
