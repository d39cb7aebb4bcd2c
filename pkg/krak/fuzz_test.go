package krak

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseMachineFile asserts the no-panic contract of the machine-file
// parser (mirroring mesh.FuzzParseDeck): any input either parses into a
// spec that builds a Machine, or is rejected with an error — never a
// panic — and every accepted spec survives a FormatMachineFile round
// trip with its content fingerprint intact. Checked-in seeds live in
// testdata/fuzz/FuzzParseMachineFile; run with
//
//	go test -fuzz FuzzParseMachineFile ./pkg/krak
func FuzzParseMachineFile(f *testing.F) {
	seeds := []string{
		"machine lab\ninterconnect gige\nseed 7\nrepeats 3\nquick\n",
		"network myri\nsegment 0 9.5 120\nsegment 4096 15 240\n",
		"compute-scale 1.5\nserialize-sends\n",
		"# comment only\n",
		"interconnect tokenring\n",
		"network x\nsegment 64 1 1\n",
		"segment 0 1 1\n",
		"compute-scale NaN\n",
		"seed 99999999999999999999\n",
		"interconnect infiniband\ntopology fat-tree 0.2 36\n",
		"topology dragonfly 0.3 16\ncompute-scale 0.02\n",
		"network x\nsegment 0 1 1\ntopology torus 0.5 8 8 8\n",
		"topology torus 0.5\n",
		"topology hypercube 1 4\n",
		"topology fat-tree NaN 8\n",
		"topology torus 0.2 4 4\n",
		"machine " + strings.Repeat("m", 100) + "\n",
		"network x\n" + strings.Repeat("segment 0 1 1\n", 70),
		"\x00\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		ms, err := ParseMachineFile(src)
		if err != nil {
			return
		}
		// Accepted specs must build: the parser promises a buildable
		// machine, and construction is cheap (no artifact computation).
		if _, err := NewMachine(ms.Options()...); err != nil {
			t.Fatalf("parsed spec does not build: %v\n%+v", err, ms)
		}
		// And round-trip through the formatter with identity preserved.
		text := FormatMachineFile(ms)
		back, err := ParseMachineFile(text)
		if err != nil {
			t.Fatalf("formatted spec does not reparse: %v\n%s", err, text)
		}
		if back.Fingerprint() != ms.Fingerprint() {
			t.Fatalf("fingerprint drifted through format/parse:\n%s", text)
		}
	})
}

// FuzzIndent differentially checks RenderJSON's indenter against
// json.Indent: a fuzzed string is wrapped in a fuzzed nesting of
// objects, arrays and empty {} and [] (each 2-bit field of shape picks
// one wrapper), encoded with json.Marshal, and both indenters must
// agree byte for byte. The string lands as an object key, a value and
// an array element, so escapes reach the indenter in every position.
// Checked-in seeds live in testdata/fuzz/FuzzIndent; run with
//
//	go test -fuzz FuzzIndent ./pkg/krak
func FuzzIndent(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string, shape uint16) {
		var v any = s
		for ; shape > 1; shape >>= 2 {
			switch shape & 3 {
			case 0:
				v = []any{v}
			case 1:
				v = map[string]any{s: v}
			case 2:
				v = []any{map[string]any{}, v, []any{}, len(s)}
			case 3:
				v = map[string]any{"a": []any{}, s + "b": v, "c": map[string]any{}}
			}
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		got := make([]byte, indent(nil, compact))
		if n := indent(got, compact); n != len(got) {
			t.Fatalf("indent wrote %d bytes after sizing %d", n, len(got))
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("indent(%s)\n got: %q\nwant: %q", compact, got, want.Bytes())
		}
	})
}
