package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strconv"
	"sync/atomic"

	"krak/internal/artifacts"
	"krak/pkg/krak"
)

// The machine registry is the serving tier's calibration lifecycle
// store: fingerprint → versioned history of fitted machines. A
// calibration registered under its fitted fingerprint becomes version 1;
// recalibrations (explicit re-registration, or the append endpoint's
// refit) stack as further versions under the same fingerprint, each
// carrying the dataset text it was fitted on so the next append can
// refit from it.
//
// Nothing is held in memory: version n of fingerprint fp is the
// immutable DiskCache entry (kind "registry/<fp>", key "n") holding the
// history up to n as GET serves it. A read serves the newest entry; a
// write creates n+1 from the n its caller read, or answers 409 if
// another write took n+1 first, so no write drops another's
// observations. Restarts, and any number of servers sharing one
// -cache-dir, therefore serve one history byte-identically.

const (
	// maxRegistryMachines caps distinct fingerprints per directory —
	// fleet-wide when replicas share one — so a stream of novel
	// fingerprints saturates rather than exhausts the store. Known
	// fingerprints keep accepting versions past the cap.
	maxRegistryMachines = 64

	// maxRegistryVersions bounds one machine's history; past it the
	// oldest versions fall off while version numbers keep counting up.
	maxRegistryVersions = 16

	registryKind = "registry"

	// maxReadAttempts bounds how often a read lists a fingerprint's
	// entries again after the one it chose vanished.
	maxReadAttempts = 8
)

// errRegistryFull is the 503 the registry cap returns.
var errRegistryFull = errors.New("server: machine registry is full; retry with a registered fingerprint")

// errUnknownMachine is the 404 for fingerprints never registered.
var errUnknownMachine = errors.New("server: unknown machine fingerprint")

// errVersionTaken is the 409 for a write another write beat to its
// version: the history changed since the caller read it.
var errVersionTaken = errors.New("server: machine history changed since it was read; read it again and retry")

// machineRegistry is the fingerprint → history store. Safe for
// concurrent use, within and across processes.
type machineRegistry struct {
	// disk is set by New for a -cache-dir. Without one it stays nil,
	// nothing registered, until the first registration makes a private
	// temporary directory (temp), which Server.Close removes.
	disk atomic.Pointer[artifacts.DiskCache]
	temp atomic.Pointer[string]
}

// corrupt counts the entries reads discarded as corrupt.
func (g *machineRegistry) corrupt() float64 {
	if dc := g.disk.Load(); dc != nil {
		return float64(dc.Corrupt())
	}
	return 0
}

// open returns the store, making the private directory on first use.
func (g *machineRegistry) open() (*artifacts.DiskCache, error) {
	if dc := g.disk.Load(); dc != nil {
		return dc, nil
	}
	dir, err := os.MkdirTemp("", "krak-registry-")
	if err != nil {
		return nil, fmt.Errorf("server: making the registry directory: %w", err)
	}
	dc, _ := artifacts.OpenDiskCache(dir) // cannot fail: dir exists
	if g.disk.CompareAndSwap(nil, dc) {
		g.temp.Store(&dir)
	} else {
		os.RemoveAll(dir) // a concurrent first registration made one
	}
	return g.disk.Load(), nil
}

// len reports how many fingerprints the directory holds.
func (g *machineRegistry) len() int {
	var names []string
	if dc := g.disk.Load(); dc != nil {
		names, _ = dc.List(registryKind)
	}
	return len(names)
}

// newestVersion returns the highest version among entry names, 0 if none.
func newestVersion(names []string) int {
	n := 0
	for _, name := range names {
		if v, err := strconv.Atoi(name); err == nil && v > n {
			n = v
		}
	}
	return n
}

// history returns the newest stored rendered history for a fingerprint.
// A fingerprint the entry name rule refuses touches no file. An entry
// that vanishes between the listing and the read (a newer write pruned
// it, or it was corrupt) sends the read back to the listing.
func (g *machineRegistry) history(fp string) ([]byte, error) {
	dc := g.disk.Load()
	if dc == nil {
		return nil, errUnknownMachine
	}
	kind := registryKind + "/" + fp
	for range maxReadAttempts {
		names, err := dc.List(kind)
		if err != nil {
			return nil, err
		}
		n := newestVersion(names)
		if n == 0 {
			return nil, errUnknownMachine
		}
		if b, ok := dc.Get(kind, strconv.Itoa(n)); ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("server: history of %s kept changing while being read", fp)
}

// read returns the newest stored history for a fingerprint, decoded.
func (g *machineRegistry) read(fp string) (*krak.MachineHistory, error) {
	b, err := g.history(fp)
	if err != nil {
		return nil, err
	}
	h := &krak.MachineHistory{}
	if err := h.UnmarshalJSON(b); err != nil {
		return nil, fmt.Errorf("registry entry for %s is corrupt: %w", fp, err)
	}
	if len(h.Versions) == 0 {
		return nil, fmt.Errorf("registry entry for %s holds no versions", fp)
	}
	return h, nil
}

// register records a calibration as the version after the newest stored
// one and returns the rendered history.
func (g *machineRegistry) register(fp string, res *krak.CalibrationResult, dataset string) ([]byte, error) {
	h, err := g.read(fp)
	if err != nil && !errors.Is(err, errUnknownMachine) {
		return nil, err
	}
	return g.commit(fp, h, res, dataset)
}

// commit stores base plus a calibration as the fingerprint's next
// version and returns the rendered history. base is the history the
// caller read, nil for a fingerprint it found unregistered; if another
// write stored that next version first, commit stores nothing and fails
// with errVersionTaken. A novel fingerprint past the cap gets
// errRegistryFull. A failed write fails the call, so nothing is
// answered 200 that a restart would lose.
func (g *machineRegistry) commit(fp string, base *krak.MachineHistory, res *krak.CalibrationResult, dataset string) ([]byte, error) {
	dc, err := g.open()
	if err != nil {
		return nil, err
	}
	var versions []krak.MachineVersion
	next := 1
	if base != nil {
		versions = base.Versions
		next = versions[len(versions)-1].Version + 1
	} else if fps, err := dc.List(registryKind); err != nil {
		return nil, err
	} else if len(fps) >= maxRegistryMachines && !slices.Contains(fps, fp) {
		return nil, errRegistryFull
	}
	versions = append(slices.Clip(versions), krak.MachineVersion{Version: next, Dataset: dataset, Result: res})
	if len(versions) > maxRegistryVersions {
		versions = versions[len(versions)-maxRegistryVersions:]
	}
	b, err := krak.RenderJSON(&krak.MachineHistory{Fingerprint: fp, Versions: versions})
	if err != nil {
		return nil, err
	}
	// Only the newest two entries are kept, so a caller that read a
	// since-pruned version could create its successor again. A version
	// past next already stored means exactly that.
	kind, key := registryKind+"/"+fp, strconv.Itoa(next)
	taken := fmt.Errorf("%w: version %d of %s exists", errVersionTaken, next, fp)
	if names, err := dc.List(kind); err != nil {
		return nil, err
	} else if newestVersion(names) > next {
		return nil, taken
	}
	if err := dc.Put(kind, key, b); errors.Is(err, fs.ErrExist) {
		return nil, taken
	} else if err != nil {
		return nil, fmt.Errorf("server: machine history not persisted: %w", err)
	}
	return b, g.settle(dc, fp, next, b)
}

// settle finishes a commit that created entry next of fp, holding the
// history ours: it prunes the entries older than next's predecessor.
// If a newer version appeared meanwhile, settle keeps ours only when the
// newest history was built on it; otherwise ours re-created a pruned
// version that newer writes never saw, so settle removes it and fails
// with errVersionTaken.
func (g *machineRegistry) settle(dc *artifacts.DiskCache, fp string, next int, ours []byte) error {
	kind, key := registryKind+"/"+fp, strconv.Itoa(next)
	names, err := dc.List(kind)
	if err != nil {
		return err
	}
	if newestVersion(names) > next && !g.builtOn(fp, ours) {
		dc.Remove(kind, key)
		return fmt.Errorf("%w: version %d of %s was pruned before this write stored it", errVersionTaken, next, fp)
	}
	for _, name := range names {
		if v, err := strconv.Atoi(name); err == nil && v < next-1 {
			dc.Remove(kind, name)
		}
	}
	return nil
}

// builtOn reports whether the newest stored history of fp extends the
// history ours: every version the two both hold, the newest of ours
// among them, is the same entry.
func (g *machineRegistry) builtOn(fp string, ours []byte) bool {
	var mine krak.MachineHistory
	newest, err := g.read(fp)
	if err != nil || mine.UnmarshalJSON(ours) != nil {
		return false
	}
	n0, m0 := newest.Versions[0].Version, mine.Versions[0].Version
	from, to := max(n0, m0), m0+len(mine.Versions)
	if from >= to || to > n0+len(newest.Versions) {
		return false
	}
	a, errA := json.Marshal(newest.Versions[from-n0 : to-n0])
	b, errB := json.Marshal(mine.Versions[from-m0:])
	return errA == nil && errB == nil && bytes.Equal(a, b)
}
