package artifacts

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// present reports whether a file exists at p.
func present(t *testing.T, p string) bool {
	t.Helper()
	_, err := os.Stat(p)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.Get("vector", "k"); ok {
		t.Fatal("hit on empty cache")
	}
	payload := []byte("hello artifact")
	if err := dc.Put("vector", "k", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := dc.Get("vector", "k")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q/%v, want %q", got, ok, payload)
	}
	// The same key under a different kind is a distinct entry.
	if _, ok := dc.Get("response", "k"); ok {
		t.Fatal("kinds share a namespace")
	}
	// The entry is the one file named by (kind, key); nothing was written
	// for the kind that only missed.
	if !present(t, filepath.Join(dir, "vector", "k.art")) {
		t.Fatal("entry not at <dir>/vector/k.art")
	}
	if present(t, filepath.Join(dir, "response")) {
		t.Fatal("a miss created the response kind")
	}
	if dc.Corrupt() != 0 {
		t.Fatalf("corrupt = %d, want 0", dc.Corrupt())
	}
}

// TestDiskCachePutNeverReplaces pins immutability: a second Put of a
// taken name fails with an error matching fs.ErrExist and the first
// payload stays.
func TestDiskCachePutNeverReplaces(t *testing.T) {
	dc, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Put("registry/fp", "1", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := dc.Put("registry/fp", "1", []byte("second")); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("second Put = %v, want an fs.ErrExist error", err)
	}
	if got, ok := dc.Get("registry/fp", "1"); !ok || string(got) != "first" {
		t.Fatalf("Get = %q/%v, want the first payload", got, ok)
	}
}

// TestDiskCacheList pins the one listing method: entry keys and sub-kind
// names, without the staging directory.
func TestDiskCacheList(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names, err := dc.List("registry"); err != nil || names != nil {
		t.Fatalf("List of an empty kind = %v, %v", names, err)
	}
	for _, e := range []struct{ kind, key string }{{"registry/a", "1"}, {"registry/a", "2"}, {"registry/b", "1"}} {
		if err := dc.Put(e.kind, e.key, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for kind, want := range map[string][]string{"registry": {"a", "b"}, "registry/a": {"1", "2"}} {
		if got, err := dc.List(kind); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("List(%q) = %v, %v; want %v", kind, got, err, want)
		}
	}
	dc.Remove("registry/a", "1")
	if got, _ := dc.List("registry/a"); !reflect.DeepEqual(got, []string{"2"}) {
		t.Errorf("List after Remove = %v, want [2]", got)
	}
}

// TestDiskCacheNamesArePathSafe feeds kinds and keys that would leave the
// directory or hide in it: each is refused by Put and List with
// ErrBadName, misses on Get, and no file appears anywhere.
func TestDiskCacheNamesArePathSafe(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	dc, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("f", 129)
	badKinds := []string{"", "..", "../x", "a/../b", "a/..", "/a", "a/", "a//b", ".hidden", "a/.b", "a\\b", long}
	badKeys := []string{"", ".", "..", "../1", "a/b", "/1", "1/", ".1", "a b", long}
	for _, kind := range badKinds {
		if err := dc.Put(kind, "1", []byte("x")); !errors.Is(err, ErrBadName) {
			t.Errorf("Put kind %q = %v, want ErrBadName", kind, err)
		}
		if _, err := dc.List(kind); !errors.Is(err, ErrBadName) {
			t.Errorf("List kind %q = %v, want ErrBadName", kind, err)
		}
		if _, ok := dc.Get(kind, "1"); ok {
			t.Errorf("Get kind %q hit", kind)
		}
	}
	for _, key := range badKeys {
		if err := dc.Put("registry", key, []byte("x")); !errors.Is(err, ErrBadName) {
			t.Errorf("Put key %q = %v, want ErrBadName", key, err)
		}
		if _, ok := dc.Get("registry", key); ok {
			t.Errorf("Get key %q hit", key)
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && p != root && p != dir {
			files = append(files, p)
		}
		return err
	})
	if len(files) != 0 {
		t.Fatalf("refused names created %v", files)
	}
	// The replay keys krakbench stores are well-formed names.
	if err := dc.Put("response", "replay|0", []byte("x")); err != nil {
		t.Fatal(err)
	}
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
	p := filepath.Join(dir, "vector", "k.art")
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
	if present(t, p) {
		t.Fatal("corrupt entry not removed")
	}
	if dc.Corrupt() != 1 {
		t.Fatalf("corrupt count = %d, want 1", dc.Corrupt())
	}
	if err := dc.Put("vector", "k", []byte("payload bytes")); err != nil {
		t.Fatal(err)
	}
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
	p := filepath.Join(dir, "vector", "k.art")
	skewed := append([]byte("krakart/v999 vector\n"), []byte("deadbeef\nnew payload")...)
	if err := os.WriteFile(p, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.Get("vector", "k"); ok {
		t.Fatal("version-skewed entry verified")
	}
	if present(t, p) || dc.Corrupt() != 1 {
		t.Fatalf("skewed entry present=%v, corrupt count = %d; want dropped and 1", present(t, p), dc.Corrupt())
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
	a.Put("response", "replay|1", []byte(`{"ok":true}`))
	b, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get("response", "replay|1")
	if !ok || string(got) != `{"ok":true}` {
		t.Fatalf("second instance Get = %q/%v", got, ok)
	}
	if err := b.Put("response", "replay|1", []byte("other")); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("second instance replaced a taken entry: %v", err)
	}
}

func TestOpenDiskCacheRejectsEmptyDir(t *testing.T) {
	if _, err := OpenDiskCache(""); err == nil {
		t.Fatal("empty dir accepted")
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
	p := filepath.Join(dir, "vector", "k.art")
	if err := os.Truncate(p, maxDiskEntryBytes+1); err != nil {
		t.Fatal(err)
	}
	if _, ok := dc.Get("vector", "k"); ok {
		t.Fatal("oversized entry served")
	}
	if present(t, p) {
		t.Fatal("oversized entry not removed")
	}
	if dc.Corrupt() != 1 {
		t.Fatalf("corrupt count = %d, want 1", dc.Corrupt())
	}
}
