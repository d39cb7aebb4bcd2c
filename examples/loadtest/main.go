// Command loadtest is a small load generator for `krak serve`: it fires
// concurrent requests built from the pkg/krak wire types, decodes every
// response through the schema-stamped UnmarshalJSON (so a schema drift
// fails loudly), and reports throughput, latency percentiles, and
// backpressure. The first pass over a scenario set is cold (the server
// computes); the following passes measure the serving layer's
// single-flight LRU.
//
// With -endpoint sweep the generator drives the heavy admission class:
// point it at a server with a tight -heavy-limit and more workers than
// slots, and the report shows how many requests the server shed with 429
// (and the Retry-After hints it sent) versus served — the admission
// control acceptance drill.
//
// Usage:
//
//	krak serve -quick &
//	go run ./examples/loadtest -addr http://localhost:8080 -n 2000 -c 16
//	go run ./examples/loadtest -endpoint sweep -n 50 -c 16   # saturation
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"krak/pkg/krak"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "base URL of krak serve")
	n := flag.Int("n", 1000, "total requests")
	c := flag.Int("c", 8, "concurrent workers")
	deck := flag.String("deck", "small", "deck every request asks about")
	pes := flag.String("pe", "4,8,16,32,64,128", "comma-separated PE counts to cycle through")
	model := flag.String("model", "general-homo", "model variant")
	endpoint := flag.String("endpoint", "predict", "endpoint to drive: predict (light class) or sweep (heavy class)")
	flag.Parse()

	var peList []int
	for _, f := range strings.Split(*pes, ",") {
		var pe int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &pe); err != nil || pe <= 0 {
			log.Fatalf("bad -pe entry %q", f)
		}
		peList = append(peList, pe)
	}

	// Pre-encode the request bodies. Predict cycles one body per grid
	// point, so every point goes cold exactly once and warm thereafter;
	// sweep sends the whole grid each time (uncached on the server — each
	// request is real heavy-class work, which is what saturates admission).
	var bodies [][]byte
	switch *endpoint {
	case "predict":
		for _, pe := range peList {
			req := krak.PredictRequest{Deck: *deck, PEs: pe, Model: *model}
			b, err := json.Marshal(req)
			if err != nil {
				log.Fatal(err)
			}
			bodies = append(bodies, b)
		}
	case "sweep":
		req := krak.SweepRequest{Decks: []string{*deck}, PEs: peList, Model: *model}
		b, err := json.Marshal(req)
		if err != nil {
			log.Fatal(err)
		}
		bodies = append(bodies, b)
	default:
		log.Fatalf("bad -endpoint %q (predict|sweep)", *endpoint)
	}

	// Wait for the server to come up.
	if err := waitHealthy(*addr); err != nil {
		log.Fatalf("server not healthy: %v", err)
	}

	var (
		next       atomic.Int64
		failures   atomic.Int64
		rejected   atomic.Int64 // 429: admission queue full
		retryHints atomic.Int64 // 429/503 responses carrying Retry-After
		latencies  = make([]time.Duration, *n)
		client     = &http.Client{Timeout: 120 * time.Second}
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				t0 := time.Now()
				err := request(client, *addr, *endpoint, bodies[i%len(bodies)])
				switch {
				case err == nil:
				case errors429(err):
					// Backpressure is the server working as designed under
					// saturation, not a failure: count it separately.
					rejected.Add(1)
					if hasRetryAfter(err) {
						retryHints.Add(1)
					}
				default:
					failures.Add(1)
					log.Printf("request %d: %v", i, err)
				}
				latencies[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	served := int64(*n) - failures.Load() - rejected.Load()
	fmt.Printf("loadtest: %d requests to /v1/%s, %d workers, %d served, %d failures\n",
		*n, *endpoint, *c, served, failures.Load())
	fmt.Printf("  backpressure: %d rejected with 429 (%d carried Retry-After)\n",
		rejected.Load(), retryHints.Load())
	fmt.Printf("  wall %.2fs  throughput %.0f req/s\n", wall.Seconds(), float64(*n)/wall.Seconds())
	fmt.Printf("  latency p50 %v  p95 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), latencies[len(latencies)-1].Round(time.Microsecond))
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

// backpressureErr marks a 429 rejection so the counters can distinguish
// the server shedding load from the server breaking.
type backpressureErr struct {
	retryAfter string
}

func (e *backpressureErr) Error() string {
	return "rejected with 429 (Retry-After " + e.retryAfter + ")"
}

func errors429(err error) bool {
	_, ok := err.(*backpressureErr)
	return ok
}

func hasRetryAfter(err error) bool {
	b, ok := err.(*backpressureErr)
	return ok && b.retryAfter != ""
}

// request POSTs one request and validates the response decodes as the
// endpoint's schema-stamped result type.
func request(client *http.Client, addr, endpoint string, body []byte) error {
	resp, err := client.Post(addr+"/v1/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return &backpressureErr{retryAfter: resp.Header.Get("Retry-After")}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	switch endpoint {
	case "sweep":
		var sr krak.SweepResult
		if err := json.Unmarshal(data, &sr); err != nil {
			return err // ErrSchema here means the server drifted
		}
		if len(sr.Points) == 0 {
			return fmt.Errorf("implausible sweep: no points")
		}
	default:
		var res krak.Result
		if err := json.Unmarshal(data, &res); err != nil {
			return err // ErrSchema here means the server drifted
		}
		if res.Kind != krak.KindPredict || res.TotalSeconds <= 0 {
			return fmt.Errorf("implausible result: kind=%s total=%g", res.Kind, res.TotalSeconds)
		}
	}
	return nil
}

// waitHealthy polls /healthz until the server answers or the budget runs
// out.
func waitHealthy(addr string) error {
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return lastErr
}
