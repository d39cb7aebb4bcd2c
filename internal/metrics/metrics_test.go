package metrics

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestAddLabeledRendersSortedSeries: a labeled family renders its HELP
// and TYPE header, then one labeled line per series in sorted label
// order, each value read at scrape time.
func TestAddLabeledRendersSortedSeries(t *testing.T) {
	reg := NewRegistry()
	var cache, disk atomic.Int64
	reg.AddLabeled("krak_gateway_degraded_total", "counter", "Degraded responses.",
		map[string]func() float64{"zeta": Counter(&disk), "cache": Counter(&cache)}, "mode")
	disk.Add(3)

	want := "# HELP krak_gateway_degraded_total Degraded responses.\n" +
		"# TYPE krak_gateway_degraded_total counter\n" +
		"krak_gateway_degraded_total{mode=\"cache\"} 0\n" +
		"krak_gateway_degraded_total{mode=\"zeta\"} 3\n"
	if got := string(reg.Render()); got != want {
		t.Fatalf("Render() =\n%s\nwant\n%s", got, want)
	}
}

// TestTotal: Total sums a family's base series — every label, but no
// histogram _bucket/_sum/_count samples — and an unknown family is 0.
func TestTotal(t *testing.T) {
	reg := NewRegistry()
	reg.AddLabeled("labeled_total", "counter", "h", map[string]func() float64{
		"a": func() float64 { return 2 },
		"b": func() float64 { return 5 },
	}, "k")
	reg.AddFamily("latency_seconds", "histogram", "h", func() []Sample {
		return []Sample{
			{Suffix: "_bucket", Labels: `{le="+Inf"}`, Value: 100},
			{Suffix: "_sum", Value: 100},
			{Suffix: "_count", Value: 100},
			{Value: 1},
		}
	})
	for name, want := range map[string]float64{
		"labeled_total":   7,
		"latency_seconds": 1,
		"missing_total":   0,
	} {
		if got := reg.Total(name); got != want {
			t.Errorf("Total(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestInstrumentCountsStatusPerEndpoint: the middleware labels each
// request with its endpoint and the status its handler wrote (200 when
// the handler never calls WriteHeader), and feeds the latency histogram.
func TestInstrumentCountsStatusPerEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.AddFamily("requests_total", "counter", "h", reg.CollectRequests)
	reg.AddFamily("request_seconds", "histogram", "h", reg.CollectLatency)
	ok := reg.Instrument("/ok", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
	teapot := reg.Instrument("/teapot", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	for _, h := range []http.HandlerFunc{ok, ok, teapot} {
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	}

	text := string(reg.Render())
	for _, line := range []string{
		`requests_total{endpoint="/ok",code="200"} 2`,
		`requests_total{endpoint="/teapot",code="418"} 1`,
		`request_seconds_bucket{endpoint="/ok",le="+Inf"} 2`,
		`request_seconds_count{endpoint="/teapot"} 1`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("/metrics missing %q in\n%s", line, text)
		}
	}
	if got := reg.Total("requests_total"); got != 3 {
		t.Fatalf("Total(requests_total) = %v, want 3", got)
	}
}
