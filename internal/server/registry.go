package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"krak/internal/artifacts"
	"krak/pkg/krak"
)

// The machine registry is the serving tier's calibration lifecycle
// store: fingerprint → versioned history of fitted machines. A
// calibration registered under its fitted fingerprint becomes version 1;
// recalibrations (explicit re-registration, or the append endpoint's
// refit) stack as further versions under the same fingerprint, each
// carrying the dataset text it was fitted on so the next append can
// refit from it. Histories are rendered once, served as stored bytes,
// and persisted through the content-addressed disk cache — a server
// restarted on the same -cache-dir serves registered history
// byte-identically without refitting anything.

const (
	// maxRegistryMachines caps distinct registered fingerprints, like
	// the machine cache: registration is a write amplified by disk
	// persistence, so an open-ended stream of novel fingerprints must
	// saturate rather than exhaust the store. Known fingerprints keep
	// accepting versions past the cap.
	maxRegistryMachines = 64

	// maxRegistryVersions bounds one machine's history; past it the
	// oldest versions fall off while version numbers keep counting up.
	maxRegistryVersions = 16

	// registryKind namespaces registry histories in the disk tier.
	registryKind = "registry"
)

// errRegistryFull is the 503 the registry cap returns.
var errRegistryFull = errors.New("server: machine registry is full; retry with a registered fingerprint")

// errUnknownMachine is the 404 for fingerprints never registered.
var errUnknownMachine = errors.New("server: unknown machine fingerprint")

// machineRegistry is the bounded, disk-backed fingerprint → history
// store. Safe for concurrent use.
type machineRegistry struct {
	mu   sync.Mutex
	hist map[string]*krak.MachineHistory
	body map[string][]byte
	disk *artifacts.DiskCache
}

func newMachineRegistry(disk *artifacts.DiskCache) *machineRegistry {
	return &machineRegistry{
		hist: map[string]*krak.MachineHistory{},
		body: map[string][]byte{},
		disk: disk,
	}
}

// len reports how many fingerprints are registered in memory.
func (g *machineRegistry) len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.hist)
}

// loadLocked returns the fingerprint's history, consulting the disk
// tier on a memory miss (the restart path) and repopulating memory so
// later appends keep numbering versions correctly. Callers hold g.mu.
func (g *machineRegistry) loadLocked(fp string) (*krak.MachineHistory, []byte, error) {
	if h, ok := g.hist[fp]; ok {
		return h, g.body[fp], nil
	}
	b, ok := g.disk.Get(registryKind, fp)
	if !ok {
		return nil, nil, errUnknownMachine
	}
	h := &krak.MachineHistory{}
	if err := h.UnmarshalJSON(b); err != nil {
		return nil, nil, fmt.Errorf("registry entry for %s is corrupt: %w", fp, err)
	}
	g.hist[fp] = h
	g.body[fp] = b
	return h, b, nil
}

// history returns the stored rendered history for a fingerprint.
func (g *machineRegistry) history(fp string) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, b, err := g.loadLocked(fp)
	return b, err
}

// latest returns the newest registered version for a fingerprint.
func (g *machineRegistry) latest(fp string) (krak.MachineVersion, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, _, err := g.loadLocked(fp)
	if err != nil {
		return krak.MachineVersion{}, err
	}
	return h.Versions[len(h.Versions)-1], nil
}

// register records a calibration as the fingerprint's next version and
// returns the updated rendered history. New fingerprints past the cap
// are refused with errRegistryFull; known ones always accept. With a
// cache directory the history is persisted before it is published: a
// failed write fails the registration and leaves the registry as it was,
// so nothing is served that a restart would lose.
func (g *machineRegistry) register(fp string, res *krak.CalibrationResult, dataset string) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, _, err := g.loadLocked(fp)
	if errors.Is(err, errUnknownMachine) {
		if len(g.hist) >= maxRegistryMachines {
			return nil, errRegistryFull
		}
		h = &krak.MachineHistory{Fingerprint: fp}
	} else if err != nil {
		return nil, err
	}
	next := 1
	if n := len(h.Versions); n > 0 {
		next = h.Versions[n-1].Version + 1
	}
	// Build the next history beside the stored one (Clip makes append
	// copy), so a failure below leaves the stored history untouched.
	versions := append(slices.Clip(h.Versions), krak.MachineVersion{Version: next, Dataset: dataset, Result: res})
	if len(versions) > maxRegistryVersions {
		versions = versions[len(versions)-maxRegistryVersions:]
	}
	nh := &krak.MachineHistory{Fingerprint: h.Fingerprint, Versions: versions}
	b, err := krak.RenderJSON(nh)
	if err != nil {
		return nil, err
	}
	if err := g.disk.Put(registryKind, fp, b); err != nil {
		return nil, fmt.Errorf("server: machine history not persisted: %w", err)
	}
	g.hist[fp] = nh
	g.body[fp] = b
	return b, nil
}
