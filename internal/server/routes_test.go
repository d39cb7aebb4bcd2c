package server

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestArchitectureEndpointTable holds the Serving endpoint table in
// docs/ARCHITECTURE.md to the code's: its (path, verb, class) rows are
// the endpoint table's, in order, then the two observability endpoints
// every tier serves outside it.
func TestArchitectureEndpointTable(t *testing.T) {
	src, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	in := false
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "| Endpoint | Verb |") {
			in = true
			continue
		}
		if !in || strings.HasPrefix(line, "|---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.Trim(strings.TrimSpace(cells[i]), "`")
		}
		got = append(got, cells[1]+" "+cells[0]+" "+cells[len(cells)-1])
	}
	var want []string
	for _, rt := range Routes() {
		want = append(want, rt.Method+" "+rt.Pattern+" "+rt.Class)
	}
	want = append(want, "GET /healthz none", "GET /metrics none")
	if !slices.Equal(got, want) {
		t.Fatalf("docs/ARCHITECTURE.md endpoint table drifted from the code:\n got %q\nwant %q", got, want)
	}
}

// TestLookup pins the table lookup the gateway labels and keys by: the
// row routed under the request's method wins, a path routed only under
// other methods keeps its endpoint's row, and anything else is the
// unmatched row.
func TestLookup(t *testing.T) {
	cases := []struct {
		method, path, wantMethod, wantPattern string
		ok                                    bool
	}{
		{"POST", "/v1/predict", "POST", "/v1/predict", true},
		{"GET", "/v1/predict", "POST", "/v1/predict", true},
		{"GET", "/v1/machines/beef", "GET", "/v1/machines/{fingerprint}", true},
		{"POST", "/v1/machines/beef", "POST", "/v1/machines/{fingerprint}", true},
		{"PUT", "/v1/machines/beef", "GET", "/v1/machines/{fingerprint}", true},
		{"POST", "/v1/calibrate/append", "POST", "/v1/calibrate/append", true},
		{"GET", "/v1/machines/", "", "", false},
		{"GET", "/v1/machines/a/b", "", "", false},
		{"GET", "/v1/predict/", "", "", false},
		{"GET", "/healthz", "", "", false},
		{"POST", "/nope/7", "", "", false},
	}
	for _, tc := range cases {
		rt, ok := Lookup(tc.method, tc.path)
		if ok != tc.ok || rt.Method != tc.wantMethod || rt.Pattern != tc.wantPattern {
			t.Errorf("Lookup(%s %s) = %s %q, %v; want %s %q, %v",
				tc.method, tc.path, rt.Method, rt.Pattern, ok, tc.wantMethod, tc.wantPattern, tc.ok)
		}
		if !ok && (rt.Idempotent || rt.Key == nil) {
			t.Errorf("Lookup(%s %s): unmatched row must be digest-keyed and single-attempt", tc.method, tc.path)
		}
	}
}
