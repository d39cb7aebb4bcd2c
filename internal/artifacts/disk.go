package artifacts

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
)

// DiskCache is a directory of immutable, self-verifying entries that
// survives restarts and may be shared by any number of processes. Its
// one caller is the server's machine registry, which keeps each version
// of a history as an entry.
//
// Entry (kind, key) is the file <dir>/<kind>/<key>.art: kind is one or
// more '/'-separated names and key is one name, each passing validName,
// so no entry lies outside dir. Put writes a temp file in the kind's
// .tmp directory and links it into place, so an entry appears whole or
// not at all and is never replaced: a taken name is an error matching
// fs.ErrExist. Entries carry a schema stamp and a payload checksum; one
// that fails verification (truncated, bit rot, a format change between
// versions) reads as a miss, is counted, and is deleted.
type DiskCache struct {
	dir     string
	corrupt atomic.Int64
}

// diskSchema stamps every entry. Bump it when the on-disk layout — or the
// byte layout of any persisted entry family — changes; entries with a
// different stamp read as misses, which is how version skew between
// processes sharing a directory degrades (to a miss, never to
// corruption).
const diskSchema = "krakart/v2"

// maxDiskEntryBytes bounds how large an entry Get will load: registry
// histories are far under this; anything larger is treated as corrupt
// rather than trusted.
const maxDiskEntryBytes = 1 << 28 // 256 MiB

// ErrBadName is returned for a kind or key that validName refuses.
var ErrBadName = errors.New("artifacts: invalid entry name")

// OpenDiskCache opens (creating if needed) the entry directory rooted at
// dir.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifacts: empty disk cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifacts: creating cache dir: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// validName is the path-safe name rule for kind segments and keys: 1 to
// 128 bytes of ASCII letters, digits and "._-|", with no leading dot. So
// no name is a separator, "." or "..", or a hidden staging name.
func validName(s string) bool {
	const chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-|"
	return s != "" && len(s) <= 128 && s[0] != '.' && strings.Trim(s, chars) == ""
}

// path maps (kind, key) to the entry's file, or kind alone to its
// directory, refusing any name validName does.
func (c *DiskCache) path(kind string, key ...string) (string, error) {
	names := append(strings.Split(kind, "/"), key...)
	for _, n := range names {
		if !validName(n) {
			return "", fmt.Errorf("%w: %q in %q", ErrBadName, n, strings.Join(names, "/"))
		}
	}
	p := filepath.Join(append([]string{c.dir}, names...)...)
	if len(key) > 0 {
		p += ".art"
	}
	return p, nil
}

// Get returns the payload stored for (kind, key). An invalid name, a
// missing file, or any verification failure — wrong schema stamp or
// kind, checksum mismatch, oversized entry — is a miss; entries that
// fail verification are removed.
func (c *DiskCache) Get(kind, key string) ([]byte, bool) {
	p, err := c.path(kind, key)
	if err != nil {
		return nil, false
	}
	// One descriptor for the size check and the read: the read takes
	// exactly the checked size, so it is bounded by construction, and an
	// entry deleted after the open still reads whole.
	f, err := os.Open(p)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var data []byte
	fi, err := f.Stat()
	if err == nil && fi.Size() <= maxDiskEntryBytes {
		data = make([]byte, fi.Size())
		_, err = io.ReadFull(f, data)
	}
	if err != nil {
		return nil, false
	}
	// An oversized entry leaves data empty and is dropped like any other
	// corrupt one; a failed removal leaves it reading as a miss.
	rest, stamped := bytes.CutPrefix(data, []byte(diskSchema+" "+kind+"\n"))
	sum, payload, _ := bytes.Cut(rest, []byte("\n"))
	if !stamped || string(sum) != fmt.Sprintf("%x", sha256.Sum256(payload)) {
		c.corrupt.Add(1)
		os.Remove(p)
		return nil, false
	}
	return payload, true
}

// Put creates the entry (kind, key) holding payload, under a header of
// the schema stamp and kind, then the payload's checksum. If the name
// is taken, by this process or another, it returns an error matching
// fs.ErrExist and the existing entry stays as it was.
func (c *DiskCache) Put(kind, key string, payload []byte) error {
	p, err := c.path(kind, key)
	if err != nil {
		return err
	}
	stage := filepath.Join(filepath.Dir(p), ".tmp")
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return fmt.Errorf("artifacts: writing %s entry %s: %w", kind, key, err)
	}
	tmp, err := os.CreateTemp(stage, "put-*")
	if err != nil {
		return fmt.Errorf("artifacts: writing %s entry %s: %w", kind, key, err)
	}
	defer os.Remove(tmp.Name()) // once linked, the entry is a second name for the file
	_, err = fmt.Fprintf(tmp, "%s %s\n%x\n%s", diskSchema, kind, sha256.Sum256(payload), payload)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Link(tmp.Name(), p)
	}
	if err != nil {
		return fmt.Errorf("artifacts: writing %s entry %s: %w", kind, key, err)
	}
	return nil
}

// List returns the names directly under kind, in byte order: the keys
// of its entries and the names of its sub-kinds. A kind nothing was
// stored under, or whose path runs through a regular file, has none.
func (c *DiskCache) List(kind string) ([]string, error) {
	dir, err := c.path(kind)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, syscall.ENOTDIR) {
		return nil, fmt.Errorf("artifacts: listing %s: %w", kind, err)
	}
	var names []string
	for _, e := range ents {
		if name := strings.TrimSuffix(e.Name(), ".art"); validName(name) {
			names = append(names, name)
		}
	}
	return names, nil
}

// Remove deletes the entry (kind, key) if it can. It is best effort: an
// entry that stays behind is one List still returns, nothing more.
func (c *DiskCache) Remove(kind, key string) {
	if p, err := c.path(kind, key); err == nil {
		os.Remove(p)
	}
}

// Corrupt reports how many entries Get has discarded as corrupt,
// oversized or version-skewed.
func (c *DiskCache) Corrupt() int64 {
	return c.corrupt.Load()
}
