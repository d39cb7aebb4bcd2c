package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{start: 10, end: 40}}, 70},
		// [10,40] and [30,60] overlap: together they cover 50, not 60.
		// [80,120] is clipped to the parent's end: 20 more.
		{"overlapping and clipped", []span{{start: 80, end: 120}, {start: 10, end: 40}, {start: 30, end: 60}}, 30},
		{"nested", []span{{start: 10, end: 90}, {start: 20, end: 30}}, 20},
		{"outside", []span{{start: 100, end: 150}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestLinkPairsIdenticalConcurrentRequests: two in-flight requests with
// the same body each get one replica child, by digest and containment.
func TestLinkPairsIdenticalConcurrentRequests(t *testing.T) {
	spans := []span{
		{layer: layerClient, id: 1, start: 0, end: 100},
		{layer: layerClient, id: 2, conn: 1, start: 5, end: 110},
		{layer: layerGateway, id: 1, digest: 7, start: 10, end: 90},
		{layer: layerGateway, id: 2, digest: 7, start: 15, end: 105},
		{layer: layerReplica, id: -1, digest: 7, start: 20, end: 50},
		{layer: layerReplica + 1, id: -1, digest: 7, start: 25, end: 100},
		{layer: layerReplica, id: -1, digest: 9, start: 30, end: 40}, // no gateway span has this body
	}
	reqs, unlinked := link(spans)
	if unlinked != 1 {
		t.Errorf("%d unlinked spans, want 1", unlinked)
	}
	if r := reqs[1]; len(r.replicas) != 1 || r.replicas[0].start != 20 {
		t.Errorf("request 1 children %+v, want the replica span starting at 20", r.replicas)
	}
	if r := reqs[2]; len(r.replicas) != 1 || r.replicas[0].start != 25 {
		t.Errorf("request 2 children %+v, want the replica span starting at 25", r.replicas)
	}
	st := analyzeSpans(spans, map[int]bool{1: true, 2: true})
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	// Means over both requests: client (100+105)/2, gateway self
	// ((80-30)+(90-75))/2, replica busy (30+75)/2, all in microseconds.
	if st.requests != 2 || !near(st.clientMeanUS, 0.1025) || !near(st.gatewaySelfUS, 0.0325) || !near(st.busyMeanUS, 0.0525) {
		t.Errorf("span stats %+v", st)
	}
	if sum := st.httpClientUS + st.gatewaySelfUS + st.busyMeanUS; !near(sum, st.clientMeanUS) {
		t.Errorf("http %g + gateway self %g + busy %g = %g, want the client mean %g",
			st.httpClientUS, st.gatewaySelfUS, st.busyMeanUS, sum, st.clientMeanUS)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	spans := []span{
		{layer: layerClient, id: 1, start: 0, end: 100},
		{layer: layerGateway, id: 1, digest: 7, start: 10, end: 90},
		{layer: layerReplica + 2, id: -1, digest: 7, start: 20, end: 50},
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, raw)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[2].Name != "replica-2" || doc.TraceEvents[0].Ph != "X" {
		t.Fatalf("events %+v", doc.TraceEvents)
	}
}
