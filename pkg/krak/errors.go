package krak

import (
	"errors"
	"fmt"
)

// Sentinel errors returned (possibly wrapped with detail) by option
// validation and Session methods. Match them with errors.Is.
var (
	// ErrUnknownDeck is returned for a deck name outside
	// small|medium|large|figure2.
	ErrUnknownDeck = errors.New("krak: unknown deck")

	// ErrBadPE is returned when the processor count is not positive.
	ErrBadPE = errors.New("krak: processor count must be positive")

	// ErrUnknownModel is returned for a model outside the three variants
	// (general-homo, general-het, mesh-specific).
	ErrUnknownModel = errors.New("krak: unknown model")

	// ErrUnknownPartitioner is returned for a partitioner name outside
	// multilevel|rcb|sfc|strips|random.
	ErrUnknownPartitioner = errors.New("krak: unknown partitioner")

	// ErrUnknownInterconnect is returned for an interconnect name outside
	// qsnet|gige|infiniband.
	ErrUnknownInterconnect = errors.New("krak: unknown interconnect")

	// ErrUnknownExperiment is returned by Session.Experiment for an id not
	// in the registry.
	ErrUnknownExperiment = errors.New("krak: unknown experiment")

	// ErrBadOption is returned for out-of-range option values (iteration
	// counts, hydro steps/ranks, deck dimensions).
	ErrBadOption = errors.New("krak: invalid option value")

	// ErrBadDeckSpec is returned by WithDeckSpec when the textual deck
	// format does not parse.
	ErrBadDeckSpec = errors.New("krak: invalid deck spec")

	// ErrBadMachineSpec is returned by ParseMachineFile, NetworkSpec
	// validation, and the machine options built on them when a declarative
	// machine description (a -machine-file, a wire MachineSpec's custom
	// network or embedded file) is malformed.
	ErrBadMachineSpec = errors.New("krak: invalid machine spec")

	// ErrCalibration is returned by Session.Calibrate and the dataset
	// plumbing behind it when a calibration cannot run: an empty or
	// malformed dataset, an observation referencing an unknown deck, an
	// unsupported feature model, or a degenerate fit.
	ErrCalibration = errors.New("krak: calibration error")

	// ErrSchema is returned by the UnmarshalJSON methods of Result,
	// SweepResult, CalibrationResult and MachineHistory when a payload
	// cannot be decoded or its schema stamp is not the expected one, and
	// by RenderJSON when a value cannot be encoded — the guard that keeps
	// clients of `krak serve` from silently exchanging an incompatible
	// layout.
	ErrSchema = errors.New("krak: unexpected result schema")

	// ErrUnavailable is returned (and mapped to 503 on the wire) when the
	// serving tier cannot take or place a request right now: every replica
	// for a key is down or circuit-broken at the gateway, or a bounded
	// server resource (the machine cache) is full. Responses carrying it
	// include a Retry-After header; the condition is transient and the
	// request is safe to retry.
	ErrUnavailable = errors.New("krak: service unavailable")

	// ErrModel wraps failures surfacing from the internal model layers —
	// partitioning, cluster simulation, hydro stepping, analytic
	// prediction, experiment execution — through a public Session method.
	// The cause stays in the chain (a canceled sweep still matches
	// context.Canceled), so ErrModel adds matchability without hiding
	// anything; it exists so every error a Session returns satisfies the
	// package contract that errors.Is finds at least one Err* sentinel.
	ErrModel = errors.New("krak: model evaluation failed")
)

// modelErr wraps an error crossing the internal-model boundary in
// ErrModel; op names the failing operation. Both ErrModel and err remain
// matchable with errors.Is.
func modelErr(op string, err error) error {
	return fmt.Errorf("%w: %s: %w", ErrModel, op, err)
}
