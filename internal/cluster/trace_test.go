package cluster

import (
	"reflect"
	"testing"

	"krak/internal/compute"
	"krak/internal/netmodel"
	"krak/internal/phases"
)

func TestTraceEvents(t *testing.T) {
	sum := summarize(t, 32, 16, 4)
	cfg := baseConfig()
	cfg.Trace = true
	r, err := Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Events) == 0 {
		t.Fatal("no events traced")
	}
	var computes, sends, recvs, colls int
	sendBytes := map[int]int{} // phase -> total bytes sent
	for _, e := range r.Events {
		if e.Phase < 1 || e.Phase > phases.Count {
			t.Fatalf("event with bad phase %d", e.Phase)
		}
		if e.End < e.Start {
			t.Fatalf("event ends before it starts: %+v", e)
		}
		switch e.Kind {
		case EventCompute:
			computes++
			if e.Start != 0 {
				t.Fatalf("compute must start the phase: %+v", e)
			}
		case EventSend:
			sends++
			sendBytes[e.Phase] += e.Bytes
			if e.Peer < 0 || e.Peer >= 4 || e.Peer == e.PE {
				t.Fatalf("send with bad peer: %+v", e)
			}
		case EventRecv:
			recvs++
		case EventCollective:
			colls++
			if e.PE != -1 {
				t.Fatalf("collective events are global: %+v", e)
			}
		}
	}
	// One compute event per PE per phase.
	if computes != 4*phases.Count {
		t.Fatalf("compute events = %d, want %d", computes, 4*phases.Count)
	}
	// Sends and receives pair up exactly.
	if sends == 0 || sends != recvs {
		t.Fatalf("sends = %d, recvs = %d", sends, recvs)
	}
	// Every phase with sync points produced a collective event.
	if colls != phases.Count {
		t.Fatalf("collective events = %d, want %d", colls, phases.Count)
	}
	// Only the phases Table 1 marks exchange data.
	for _, ph := range phases.Table1() {
		if ph.HasPointToPoint() && sendBytes[ph.Number] == 0 {
			t.Errorf("phase %d should have sent bytes", ph.Number)
		}
		if !ph.HasPointToPoint() && sendBytes[ph.Number] != 0 {
			t.Errorf("phase %d should not have sent bytes", ph.Number)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	sum := summarize(t, 16, 8, 2)
	r, err := Simulate(sum, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Events) != 0 {
		t.Fatal("events traced without Trace")
	}
}

func TestTraceDoesNotChangeTiming(t *testing.T) {
	sum := summarize(t, 32, 16, 8)
	cfg := baseConfig()
	a, err := Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = true
	b, err := Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.IterationTime != b.IterationTime {
		t.Fatalf("tracing changed timing: %v vs %v", a.IterationTime, b.IterationTime)
	}
}

// Traced receives drain in a total order — arrival time, then sender,
// then send order — so a traced run's timeline is reproducible event for
// event, and each point-to-point phase receives exactly what it sent.
func TestTraceReproducibleAndPaired(t *testing.T) {
	sum := summarize(t, 64, 32, 16)
	cfg := Config{Net: netmodel.QsNetI(), Costs: compute.ES45(), Trace: true}
	a, err := Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(sum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("two traced runs of one config produced different event timelines")
	}
	sends := map[int]int{}
	recvs := map[int]int{}
	for _, e := range a.Events {
		switch e.Kind {
		case EventSend:
			sends[e.Phase]++
		case EventRecv:
			recvs[e.Phase]++
		}
	}
	for _, ph := range phases.Table1() {
		if !ph.HasPointToPoint() {
			continue
		}
		if sends[ph.Number] == 0 || sends[ph.Number] != recvs[ph.Number] {
			t.Errorf("phase %d: %d sends, %d recvs", ph.Number, sends[ph.Number], recvs[ph.Number])
		}
	}
}
