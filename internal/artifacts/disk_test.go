package artifacts

import (
	"os"
	"path/filepath"
	"testing"
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
