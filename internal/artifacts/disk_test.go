package artifacts

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"krak/internal/partition"
)

func TestDiskCacheRoundTrip(t *testing.T) {
	dc, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.Get("vector", "k"); ok {
		t.Fatal("hit on empty cache")
	}
	payload := []byte("hello artifact")
	dc.Put("vector", "k", payload)
	got, ok := dc.Get("vector", "k")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q/%v, want %q", got, ok, payload)
	}
	// The same key under a different kind is a distinct entry.
	if _, ok := dc.Get("response", "k"); ok {
		t.Fatal("kinds share a namespace")
	}
	st := dc.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Writes != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 write / 0 corrupt", st)
	}
}

// entryFile locates the single on-disk entry under the cache dir so tests
// can corrupt or rewrite it.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	var found string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			found = p
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("no entry file under %s (err=%v)", dir, err)
	}
	return found
}

// TestDiskCacheCorruptEntryIsMissAndDropped flips payload bytes and checks
// the checksum catches it: the read is a miss, the entry is removed, and a
// fresh Put restores it.
func TestDiskCacheCorruptEntryIsMissAndDropped(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	dc.Put("vector", "k", []byte("payload bytes"))
	p := entryFile(t, dir)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.Get("vector", "k"); ok {
		t.Fatal("corrupt entry verified")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not removed: %v", err)
	}
	if st := dc.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", st.Corrupt)
	}
	dc.Put("vector", "k", []byte("payload bytes"))
	if _, ok := dc.Get("vector", "k"); !ok {
		t.Fatal("rewritten entry missed")
	}
}

// TestDiskCacheVersionSkewIsMiss rewrites an entry under a future schema
// stamp and checks the current reader treats it as a miss, not an error.
func TestDiskCacheVersionSkewIsMiss(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	dc.Put("vector", "k", []byte("old payload"))
	p := entryFile(t, dir)
	skewed := append([]byte("krakart/v999 vector\nk\n"), []byte("deadbeef\nnew payload")...)
	if err := os.WriteFile(p, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.Get("vector", "k"); ok {
		t.Fatal("version-skewed entry verified")
	}
	if st := dc.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", st.Corrupt)
	}
}

// TestDiskCacheSharedBetweenInstances writes through one DiskCache and
// reads through another over the same directory — the replica-sharing and
// restart contract.
func TestDiskCacheSharedBetweenInstances(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Put("response", "GET /v1/predict", []byte(`{"ok":true}`))
	b, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get("response", "GET /v1/predict")
	if !ok || string(got) != `{"ok":true}` {
		t.Fatalf("second instance Get = %q/%v", got, ok)
	}
}

func TestOpenDiskCacheRejectsEmptyDir(t *testing.T) {
	if _, err := OpenDiskCache(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestNilDiskCacheIsNoOp(t *testing.T) {
	var dc *DiskCache
	dc.Put("vector", "k", []byte("x"))
	if _, ok := dc.Get("vector", "k"); ok {
		t.Fatal("nil cache hit")
	}
	if st := dc.Stats(); st != (DiskStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	if dc.Dir() != "" {
		t.Fatal("nil cache has a dir")
	}
}

// TestDiskCacheOversizeEntryIsMissAndDropped grows an entry past
// maxDiskEntryBytes (sparsely, so no blocks are written) and checks Get
// refuses it without loading it: a miss, the file removed, one corrupt.
func TestDiskCacheOversizeEntryIsMissAndDropped(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	dc.Put("vector", "k", []byte("payload bytes"))
	p := entryFile(t, dir)
	if err := os.Truncate(p, maxDiskEntryBytes+1); err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.Get("vector", "k"); ok {
		t.Fatal("oversized entry served")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("oversized entry not removed: %v", err)
	}
	if st := dc.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", st.Corrupt)
	}
}

func TestVectorEncodeDecode(t *testing.T) {
	for _, v := range [][]int{nil, {0}, {3, 1, 4, 1, 5, 9, 2, 6}, make([]int, 1000)} {
		got, ok := decodeVector(encodeVector(v), 10)
		if !ok || !slices.Equal(got, append([]int{}, v...)) {
			t.Fatalf("round trip of %v -> %v/%v", v, got, ok)
		}
	}
	if _, ok := decodeVector(nil, 10); ok {
		t.Fatal("decoded empty bytes")
	}
	if _, ok := decodeVector([]byte{1, 0, 0, 0}, 10); ok {
		t.Fatal("decoded truncated payload")
	}
	if _, ok := decodeVector([]byte{0xff, 0xff, 0xff, 0xff}, 10); ok {
		t.Fatal("decoded oversized length prefix")
	}
	if _, ok := decodeVector(encodeVector([]int{0, 1, 4}), 4); ok {
		t.Fatal("decoded a part index outside [0, p)")
	}
}

// TestStoreRecomputesOutOfRangeDiskVector is the regression test for a
// checksummed vector entry holding a part index outside [0, p): it used
// to load, stay cached, and fail every Summary for its key, across
// restarts too. It must instead be recomputed and overwritten.
func TestStoreRecomputesOutOfRangeDiskVector(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreWithDisk(dc)
	d, err := s.LayeredDeck(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	ml := partition.NewMultilevel(1)
	bad := make([]int, d.Mesh.NumCells())
	bad[0] = 99
	dc.Put(vectorKind, partKey(d, ml, 1, 4), encodeVector(bad))

	if _, err := s.Summary(d, ml, 1, 4); err != nil {
		t.Fatalf("summary over a bad disk vector: %v", err)
	}
	if n := s.PartitionComputes(); n != 1 {
		t.Fatalf("partition computes = %d, want 1 (the bad entry must be recomputed)", n)
	}

	// The recompute overwrote the entry: a restarted store serves it.
	s2 := NewStoreWithDisk(dc)
	d2, err := s2.LayeredDeck(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Summary(d2, ml, 1, 4); err != nil {
		t.Fatalf("summary after restart: %v", err)
	}
	if n := s2.PartitionComputes(); n != 0 {
		t.Fatalf("restarted store ran %d partitions, want 0", n)
	}
}

// TestStoreVectorPersistsAcrossStores is the restart contract at the Store
// level: a second Store over the same cache directory serves the vector
// from disk, byte-identical, with zero partitioner runs.
func TestStoreVectorPersistsAcrossStores(t *testing.T) {
	dir := t.TempDir()
	dc1, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewStoreWithDisk(dc1)
	d1, err := s1.LayeredDeck(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	ml := partition.NewMultilevel(1)
	v1, err := s1.Vector(d1, ml, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := s1.PartitionComputes(); n != 1 {
		t.Fatalf("first store ran %d partitions, want 1", n)
	}
	if st := dc1.Stats(); st.Writes != 1 {
		t.Fatalf("first store wrote %d entries, want 1", st.Writes)
	}

	// "Restart": a fresh store, fresh in-memory caches, same directory.
	dc2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStoreWithDisk(dc2)
	d2, err := s2.LayeredDeck(24, 12)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s2.Vector(d2, ml, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v1, v2) {
		t.Fatal("disk-served vector differs from computed vector")
	}
	if n := s2.PartitionComputes(); n != 0 {
		t.Fatalf("second store ran %d partitions, want 0 (disk should have served it)", n)
	}
	if st := dc2.Stats(); st.Hits != 1 {
		t.Fatalf("second store disk hits = %d, want 1", st.Hits)
	}
}
