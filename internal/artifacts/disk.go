package artifacts

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// DiskCache is a content-addressed directory of self-verifying entries
// that survives restarts. Its one caller is the server's machine
// registry, which persists each fingerprint's rendered history under the
// "registry" kind, so a server restarted on the same directory serves it
// again. Writes are atomic rename-into-place, so a reader — or a second
// process over the same directory — never observes a torn entry.
//
// Every entry is addressed by (kind, key): kind namespaces the entry
// family and key is the caller's identity string. Entries are
// self-verifying — a schema stamp and a payload checksum in the header —
// and anything that fails verification (truncated write, bit rot, a
// format change between versions) reads as a miss; Get deletes such
// entries so the next Put rewrites them fresh.
//
// A nil *DiskCache is a valid no-op store: Get always misses, Put does
// nothing. Callers thread the cache unconditionally and the nil case
// disables persistence.
type DiskCache struct {
	dir string

	hits    atomic.Int64
	misses  atomic.Int64
	writes  atomic.Int64
	corrupt atomic.Int64
}

// diskSchema stamps every entry. Bump it when the on-disk layout — or the
// byte layout of any persisted entry family — changes; entries with a
// different stamp read as misses, which is how version skew between
// processes sharing a directory degrades (to a miss, never to
// corruption).
const diskSchema = "krakart/v1"

// maxDiskEntryBytes bounds how large an entry Get will load: registry
// histories are far under this; anything larger is treated as corrupt
// rather than trusted.
const maxDiskEntryBytes = 1 << 28 // 256 MiB

// OpenDiskCache opens (creating if needed) the content-addressed cache
// rooted at dir.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifacts: empty disk cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifacts: creating cache dir: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// Dir reports the cache's root directory ("" for the nil cache).
func (c *DiskCache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// path maps (kind, key) to the entry's file: the key is hashed so
// arbitrary key strings (they embed deck names, fingerprints, separators)
// become fixed-length file names, with a two-hex-digit fan-out directory
// to keep listings manageable.
func (c *DiskCache) path(kind, key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(c.dir, kind, name[:2], name+".art")
}

// entryHeader renders the verification header: schema stamp and kind on
// the first line, the full key on the second (collision guard and a
// debugging aid), the payload checksum on the third.
func entryHeader(kind, key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return fmt.Appendf(nil, "%s %s\n%s\n%s\n", diskSchema, kind, key, hex.EncodeToString(sum[:]))
}

// Get returns the payload stored for (kind, key). Any verification
// failure — missing file, wrong schema stamp, key mismatch, checksum
// mismatch, oversized entry — is a miss; invalid files are removed so the
// next Put rewrites them.
func (c *DiskCache) Get(kind, key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	p := c.path(kind, key)
	// One descriptor for the size check and the read: a sibling replica
	// renaming a fresh entry into place between a Stat of the path and a
	// read of it would bound one file and load another. The read takes
	// exactly the checked size, so it is bounded by construction.
	f, err := os.Open(p)
	if err != nil {
		c.misses.Add(1)
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
		c.misses.Add(1)
		return nil, false
	}
	// An oversized entry leaves data empty and is dropped like any other
	// corrupt one.
	payload, ok := verifyEntry(kind, key, data)
	if !ok {
		c.drop(p)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return payload, true
}

// verifyEntry checks an entry's header against the expected (kind, key)
// and the payload against its checksum, returning the payload on success.
func verifyEntry(kind, key string, data []byte) ([]byte, bool) {
	rest, ok := cutLine(data, diskSchema+" "+kind)
	if !ok {
		return nil, false
	}
	rest, ok = cutLine(rest, key)
	if !ok {
		return nil, false
	}
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return nil, false
	}
	wantSum, payload := string(rest[:nl]), rest[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != wantSum {
		return nil, false
	}
	return payload, true
}

// cutLine strips a "want\n" prefix from data, reporting whether it was
// there.
func cutLine(data []byte, want string) ([]byte, bool) {
	if len(data) < len(want)+1 || string(data[:len(want)]) != want || data[len(want)] != '\n' {
		return nil, false
	}
	return data[len(want)+1:], true
}

// drop removes an invalid entry, counting it; removal errors are ignored
// (the entry keeps reading as corrupt, which is still just a miss).
func (c *DiskCache) drop(p string) {
	c.corrupt.Add(1)
	os.Remove(p)
}

// Put stores payload under (kind, key). The write is atomic: a temp file
// in the entry's directory renamed into place, so concurrent readers and
// other processes never see a partial entry. A write that fails leaves
// any previous entry in place and returns the error; on the nil cache Put
// does nothing.
func (c *DiskCache) Put(kind, key string, payload []byte) error {
	if c == nil {
		return nil
	}
	p := c.path(kind, key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("artifacts: writing %s entry: %w", kind, err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifacts: writing %s entry: %w", kind, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(entryHeader(kind, key, payload))
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), p)
	}
	if err != nil {
		return fmt.Errorf("artifacts: writing %s entry: %w", kind, err)
	}
	c.writes.Add(1)
	return nil
}

// DiskStats is a point-in-time snapshot of a DiskCache's counters.
type DiskStats struct {
	Hits, Misses, Writes, Corrupt int64
}

// Stats snapshots the cache's counters (zeros for the nil cache).
func (c *DiskCache) Stats() DiskStats {
	if c == nil {
		return DiskStats{}
	}
	return DiskStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Writes:  c.writes.Load(),
		Corrupt: c.corrupt.Load(),
	}
}
