package cluster_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"krak/internal/cluster"
	"krak/internal/compute"
	"krak/internal/mesh"
	"krak/internal/netmodel"
	"krak/internal/partition"
	"krak/internal/phases"
	"krak/internal/stats"
	"krak/pkg/krak"
)

type namedNet struct {
	name string
	net  *netmodel.Model
}

// catalogNets builds the interconnect, topology included, of every
// machine in the checked-in catalog.
func catalogNets(t *testing.T) []namedNet {
	t.Helper()
	presets := map[string]func() *netmodel.Model{
		"": netmodel.QsNetI, "qsnet": netmodel.QsNetI,
		"gige": netmodel.GigE, "infiniband": netmodel.Infiniband,
	}
	files, err := filepath.Glob("../../machines/*.machine")
	if err != nil || len(files) == 0 {
		t.Fatalf("machine catalog: %v (%d files)", err, len(files))
	}
	var out []namedNet
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := krak.ParseMachineFile(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var net *netmodel.Model
		if spec.Network != nil {
			if net, err = spec.Network.Model(); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
		} else {
			preset, ok := presets[spec.Interconnect]
			if !ok {
				t.Fatalf("%s: unknown interconnect %q", f, spec.Interconnect)
			}
			net = preset()
		}
		if spec.Topology != nil {
			tp, err := spec.Topology.Topology()
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if net, err = net.WithTopology(tp); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
		}
		out = append(out, namedNet{filepath.Base(f), net})
	}
	return out
}

// sameBits reports the first float of two Results whose bits differ.
func sameBits(a, b *cluster.Result) error {
	check := func(what string, x, y float64) error {
		if math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Errorf("%s: %v vs %v", what, x, y)
		}
		return nil
	}
	if err := check("iteration", a.IterationTime, b.IterationTime); err != nil {
		return err
	}
	if err := check("collectives", a.CollectiveTime, b.CollectiveTime); err != nil {
		return err
	}
	for ph := 0; ph < phases.Count; ph++ {
		if err := check(fmt.Sprintf("phase %d", ph+1), a.PhaseTimes[ph], b.PhaseTimes[ph]); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("phase %d comm", ph+1), a.CommTimes[ph], b.CommTimes[ph]); err != nil {
			return err
		}
		if len(a.ComputeTimes[ph]) != len(b.ComputeTimes[ph]) {
			return fmt.Errorf("phase %d: %d vs %d compute times", ph+1, len(a.ComputeTimes[ph]), len(b.ComputeTimes[ph]))
		}
		for pe := range a.ComputeTimes[ph] {
			if err := check(fmt.Sprintf("phase %d PE %d compute", ph+1, pe), a.ComputeTimes[ph][pe], b.ComputeTimes[ph][pe]); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestRunnerMatchesPerMessageOracle holds the run-length plans and the
// insertion-sort drain to the per-message simulator bit for bit: seeded
// deck shapes and partitioner seeds, P from 2 to 370, every catalog
// interconnect, asynchronous and serialized sends, three noise
// iterations each, on a fresh Runner per interconnect and on one Runner
// reused across all of them.
func TestRunnerMatchesPerMessageOracle(t *testing.T) {
	nets := catalogNets(t)
	costs := compute.ES45()
	rng := stats.NewSplitMix64(29)
	for _, p := range []int{2, 3, 7, 16, 45, 128, 250, 370} {
		// 40-120 cells per PE, on a 2:1 deck.
		cells := p * (40 + int(rng.Next()%80))
		h := max(4, int(math.Sqrt(float64(cells)/2)))
		d, err := mesh.BuildLayeredDeck(2*h, h)
		if err != nil {
			t.Fatal(err)
		}
		seed := rng.Next()
		part, err := partition.NewMultilevel(seed).Partition(partition.FromMesh(d.Mesh), p)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := mesh.Summarize(d.Mesh, part, p)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := cluster.NewPlan(sum)
		if err != nil {
			t.Fatal(err)
		}
		reused := cluster.NewRunner(plan)
		for _, serialize := range []bool{false, true} {
			for _, n := range nets {
				oracle := cluster.NewOracle(sum)
				fresh := cluster.NewRunner(plan)
				for it := 0; it < 3; it++ {
					cfg := cluster.Config{Net: n.net, Costs: costs, SerializeSends: serialize, Iteration: it}
					want := oracle(cfg)
					for _, r := range []*cluster.Runner{fresh, reused} {
						got, err := r.Simulate(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameBits(got, want); err != nil {
							t.Fatalf("P=%d %dx%d seed %d, %s, serialize=%v, iteration %d: %v",
								p, 2*h, h, seed, n.name, serialize, it, err)
						}
					}
				}
			}
		}
	}
}
