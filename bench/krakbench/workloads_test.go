package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"testing"

	"krak/internal/compare"
	"krak/pkg/krak"
)

func testCatalog(t *testing.T) catalog {
	t.Helper()
	cat, err := loadCatalog(filepath.Join("..", "..", "machines"))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// fullRunRequests bounds, with margin, how many requests one run of each
// workload at the default length sends: ramp and open loop (under 14 s) at
// the fixed rate plus the closed loop (under 7 s) at a little above its
// measured capacity (predict-hot ~14k/s, predict-miss ~1.3k/s,
// simulate-mixed ~60/s, analyst-batch ~400/s on 2 hardware threads).
var fullRunRequests = map[string]int{
	"predict-hot":    3000*17 + 16000*8,
	"predict-miss":   400*17 + 1400*8,
	"simulate-mixed": 15*17 + 60*8,
	"analyst-batch":  60*17 + 420*8,
}

func streamDigest(st Stream, n int) string {
	h := sha256.New()
	for range n {
		r := st.Next()
		h.Write([]byte(r.Path))
		h.Write(r.Body)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestStreamsAreSeeded pins each workload's first 2000 requests at seed 1
// (a changed digest means the benchmark's inputs changed, which makes a
// new baseline) and checks seed 2 draws a different stream.
func TestStreamsAreSeeded(t *testing.T) {
	cat := testCatalog(t)
	pinned := map[string]string{
		"predict-hot":    "09bb9275cf450760",
		"predict-miss":   "c35de26fddb0ec0a",
		"simulate-mixed": "da1bb39fcb344ff6",
		"analyst-batch":  "cbb8ccf3b1ea4420",
	}
	for _, w := range workloads {
		a := streamDigest(w.Stream(1, cat), 2000)
		if b := streamDigest(w.Stream(1, cat), 2000); a != b {
			t.Errorf("%s: seed 1 gave two different streams (%s, %s)", w.Name, a, b)
		}
		if a != pinned[w.Name] {
			t.Errorf("%s: seed 1 stream digest %s, pinned %s", w.Name, a, pinned[w.Name])
		}
		if c := streamDigest(w.Stream(2, cat), 2000); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.Name)
		}
	}
}

// TestCachedKindsNeverRepeat: the kinds the replicas cache must be fresh
// on every request, or the run would measure hits: for 4x a full run of
// predict-miss and analyst-batch, and 2x of simulate-mixed, whose warm
// keys come from a finite pool.
func TestCachedKindsNeverRepeat(t *testing.T) {
	cat := testCatalog(t)
	for name, runs := range map[string]int{"predict-miss": 4, "simulate-mixed": 2, "analyst-batch": 4} {
		w, _ := workloadByName(name)
		seen := map[[32]byte]bool{}
		warmGW, warmPer := w.Warm(cat)
		for _, r := range append(warmGW, warmPer...) {
			seen[sha256.Sum256(r.Body)] = true
		}
		st := w.Stream(1, cat)
		for i := range runs * fullRunRequests[name] {
			r := st.Next()
			if r.Kind == KindSweep {
				continue // sweeps are not cached
			}
			sum := sha256.Sum256(r.Body)
			if seen[sum] {
				t.Fatalf("%s: request %d repeats an earlier body: %s", name, i, r.Body)
			}
			seen[sum] = true
		}
	}
}

// TestSimulateMixedColdShare: the open loop is exactly one third cold, at
// the default run length and a minute, however many requests the closed
// loops between its rounds take; and no cold (deck, PE) pair recurs within
// twice a default run.
func TestSimulateMixedColdShare(t *testing.T) {
	w, _ := workloadByName("simulate-mixed")
	for _, o := range []options{{seconds: defaultSeconds}, {seconds: 60}} {
		p := planFor(w, o)
		q := &seq{st: w.Stream(7, nil)}
		pairs := map[[2]any]bool{}
		take := func(n int) (cold int) {
			for range n {
				i, r := q.take()
				if r.Kind != KindSimCold {
					continue
				}
				cold++
				var sr krak.SimulateRequest
				if err := json.Unmarshal(r.Body, &sr); err != nil {
					t.Fatal(err)
				}
				key := [2]any{sr.Deck, sr.PEs}
				if pairs[key] {
					t.Fatalf("cold pair %v recurs at request %d", key, i)
				}
				pairs[key] = true
				if sr.PEs < simColdMin || sr.PEs > simColdMax {
					t.Fatalf("cold PE %d outside [%d, %d]", sr.PEs, simColdMin, simColdMax)
				}
			}
			return cold
		}
		take(p.rampN)
		cold := 0
		for r, n := range p.openN {
			q.align(simBlock)
			cold += take(n)
			take(7 + 4*r) // a closed loop of any length
		}
		if p.openTotal() == 0 || 3*cold != p.openTotal() {
			t.Errorf("-seconds %d: %d cold of %d open-loop requests, want exactly a third", o.seconds, cold, p.openTotal())
		}
		take(2*fullRunRequests[w.Name] - q.next)
	}
}

// TestMachineSpecsStayUnderTheReplicaCap: a replica refuses its 65th
// distinct machine with 503, so no workload may send more than 64 even if
// the ring sent all of them to one replica.
func TestMachineSpecsStayUnderTheReplicaCap(t *testing.T) {
	cat := testCatalog(t)
	for _, w := range workloads {
		fps := map[string]bool{}
		addSpec := func(ms krak.MachineSpec) {
			r, err := resolve(ms)
			if err != nil {
				t.Fatal(err)
			}
			fps[r.Fingerprint()] = true
		}
		add := func(r Request) {
			var probe struct {
				Machine  krak.MachineSpec   `json:"machine"`
				Machines []krak.MachineSpec `json:"machines"`
			}
			if err := json.Unmarshal(r.Body, &probe); err != nil {
				t.Fatal(err)
			}
			addSpec(probe.Machine)
			for _, ms := range probe.Machines {
				addSpec(ms)
			}
		}
		warmGW, warmPer := w.Warm(cat)
		for _, r := range append(warmGW, warmPer...) {
			add(r)
		}
		st := w.Stream(1, cat)
		for range 4 * fullRunRequests[w.Name] {
			add(st.Next())
		}
		if len(fps) > 64 || len(fps) == 0 {
			t.Errorf("%s sends %d distinct machine specs, want 1..64", w.Name, len(fps))
		}
	}
}

// TestCompareBodiesCarryTheCatalog: compare requests embed every catalog
// machine file and seven sorted PE counts starting at 16.
func TestCompareBodiesCarryTheCatalog(t *testing.T) {
	cat := testCatalog(t)
	st := newAnalystStream(3, cat)
	for range 30 {
		r := st.Next()
		if r.Kind != KindCompare {
			continue
		}
		var cr compare.Request
		if err := json.Unmarshal(r.Body, &cr); err != nil {
			t.Fatal(err)
		}
		if len(cr.Machines) != 9 || len(cr.PEs) != 7 || cr.PEs[0] != 16 {
			t.Fatalf("compare body has %d machines and PEs %v", len(cr.Machines), cr.PEs)
		}
		for i := 1; i < len(cr.PEs); i++ {
			if cr.PEs[i] <= cr.PEs[i-1] || cr.PEs[i] < 32 || cr.PEs[i] > 4096 {
				t.Fatalf("compare PEs %v not distinct, sorted and in [32, 4096]", cr.PEs)
			}
		}
	}
}
