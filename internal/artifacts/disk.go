package artifacts

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// DiskCache is the persistent tier under the in-memory artifact caches: a
// content-addressed directory of cache entries that survives restarts and
// is shareable between replicas (writes are atomic rename-into-place, so
// two servers pointed at the same directory — or one serving while
// another warms — never observe a torn entry; last-writer-wins on the
// identical content both would write).
//
// Every entry is addressed by (kind, key): kind namespaces the artifact
// family ("vector" for partition vectors, "response" for rendered HTTP
// bodies, "registry" for machine histories), and key is the same
// content-derived string the in-memory caches use, so an entry is valid
// for exactly as long as its key would be. Entries are self-verifying — a schema stamp and a payload checksum
// in the header — and anything that fails verification (truncated write,
// bit rot, a format change between versions) is treated as a miss and
// silently recomputed by the caller; Get deletes such entries so they are
// rewritten fresh.
//
// A nil *DiskCache is a valid no-op tier: Get always misses, Put does
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
// byte layout of any persisted artifact family — changes; entries with a
// different stamp read as misses and are recomputed, which is how version
// skew between replicas sharing a directory degrades (to recompute, never
// to corruption).
const diskSchema = "krakart/v1"

// maxDiskEntryBytes bounds how large an entry Get will load: the disk
// tier stores partition vectors and rendered responses, both well under
// this; anything larger is treated as corrupt rather than trusted.
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
// sibling replicas never see a partial entry. Errors are swallowed — the
// disk tier is an optimization, and a failed write simply means the next
// process recomputes.
func (c *DiskCache) Put(kind, key string, payload []byte) {
	if c == nil {
		return
	}
	p := c.path(kind, key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, werr := tmp.Write(entryHeader(kind, key, payload))
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	if cerr := tmp.Close(); werr != nil || cerr != nil {
		return
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return
	}
	c.writes.Add(1)
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

// maxVectorEntries bounds how many cells a persisted partition vector may
// claim, so a corrupt length prefix cannot demand an absurd allocation
// before the checksum would have caught it.
const maxVectorEntries = 1 << 27

// encodeVector serializes a partition vector for the disk tier:
// little-endian uint32 count then one uint32 per cell. Part indices are
// small non-negative ints (bounded by the PE count), so uint32 is exact.
func encodeVector(v []int) []byte {
	out := make([]byte, 4+4*len(v))
	binary.LittleEndian.PutUint32(out, uint32(len(v)))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4+4*i:], uint32(x))
	}
	return out
}

// decodeVector reverses encodeVector for a p-part vector, refusing length
// prefixes beyond maxVectorEntries, payloads that do not match their
// count, and part indices outside [0, p) — a checksummed entry can still
// hold a vector no p-part partition could produce.
func decodeVector(b []byte, p int) ([]int, bool) {
	if len(b) < 4 {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > maxVectorEntries || len(b) != 4+4*n {
		return nil, false
	}
	v := make([]int, n)
	for i := range v {
		v[i] = int(binary.LittleEndian.Uint32(b[4+4*i:]))
		if v[i] >= p {
			return nil, false
		}
	}
	return v, true
}
