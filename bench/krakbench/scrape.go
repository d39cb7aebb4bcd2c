package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// series maps a Prometheus sample's full name ("family{labels}") to its
// value.
type series map[string]float64

// parseMetrics reads the Prometheus text exposition format.
func parseMetrics(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of family whose labels contain match ("" for
// all).
func (s series) sum(family, match string) float64 {
	var t float64
	for name, v := range s {
		base, labels, _ := strings.Cut(name, "{")
		if base == family && strings.Contains(labels, match) {
			t += v
		}
	}
	return t
}

func scrape(ctx context.Context, hc *http.Client, base string) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	return parseMetrics(bytes.NewReader(body))
}

// fleetScrape is one /metrics snapshot of the gateway and every replica.
type fleetScrape struct {
	gateway  series
	replicas []series
}

func scrapeFleet(ctx context.Context, hc *http.Client, f *fleet) (fleetScrape, error) {
	var fs fleetScrape
	var err error
	if fs.gateway, err = scrape(ctx, hc, f.gwURL); err != nil {
		return fs, err
	}
	for _, u := range f.replicaURLs {
		s, err := scrape(ctx, hc, u)
		if err != nil {
			return fs, err
		}
		fs.replicas = append(fs.replicas, s)
	}
	return fs, nil
}

// addDelta adds after − before into fs, series by series.
func (fs *fleetScrape) addDelta(before, after fleetScrape) {
	add := func(acc, b, a series) series {
		if acc == nil {
			acc = series{}
		}
		for name, v := range a {
			acc[name] += v - b[name]
		}
		return acc
	}
	fs.gateway = add(fs.gateway, before.gateway, after.gateway)
	if fs.replicas == nil {
		fs.replicas = make([]series, len(after.replicas))
	}
	for i := range after.replicas {
		fs.replicas[i] = add(fs.replicas[i], before.replicas[i], after.replicas[i])
	}
}

// replicaSum adds a family over all replicas.
func (fs fleetScrape) replicaSum(family, match string) float64 {
	var t float64
	for _, s := range fs.replicas {
		t += s.sum(family, match)
	}
	return t
}

// metric is one named, unit-carrying number the benchmark reports.
type metric struct {
	name  string
	unit  string
	value float64
}

// counterMetrics derives the M-sourced layer metrics from the /metrics
// deltas summed over the open loop's rounds. server.machines is the gauge
// in the last scrape; everything else is a delta.
func counterMetrics(delta, last fleetScrape, replicaURLs []string) []metric {
	d := func(family string) float64 { return delta.replicaSum(family, "") }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var proxied, shareMax float64
	for _, u := range replicaURLs {
		n := delta.gateway.sum("krak_gateway_replica_proxied_total", `replica="`+u+`"`)
		proxied += n
		shareMax = max(shareMax, n)
	}
	hits := d("krak_response_cache_hits_total")
	misses := d("krak_response_cache_misses_total")
	coalesced := d("krak_response_cache_coalesced_total")
	return []metric{
		{"gateway.retries", "count", delta.gateway.sum("krak_gateway_retries_total", "")},
		{"gateway.degraded", "count", delta.gateway.sum("krak_gateway_degraded_total", "")},
		{"gateway.replica_share_max", "ratio", ratio(shareMax, proxied)},
		{"server.lru_hit_ratio", "ratio", ratio(hits, hits+misses+coalesced)},
		{"server.lru_coalesced", "count", coalesced},
		{"server.batch_size", "jobs/batch", ratio(d("krak_batched_jobs_total"), d("krak_batches_total"))},
		{"server.admission_rejected", "count", d("krak_admission_rejected_total")},
		{"server.machines", "count", last.replicaSum("krak_machines", "")},
		{"server.partition_computes", "count", d("krak_partition_computes_total")},
	}
}

// runtimeSnap reads the runtime counters the go.* metrics are deltas of.
type runtimeSnap struct {
	allocBytes, gcCycles uint64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeSnap{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// liveHeapMiB forces a collection and returns the heap it left live.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
