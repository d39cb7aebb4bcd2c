package core

import (
	"testing"

	"krak/internal/compute"
	"krak/internal/netmodel"
)

func TestAnalyzeGeneralSensitivity(t *testing.T) {
	cal := calibrated(t)
	net := netmodel.QsNetI()
	model := NewGeneral(cal, net, Homogeneous)

	// At moderate scale the code is compute-dominated: a 2x CPU must buy
	// far more than latency or bandwidth improvements.
	s, err := AnalyzeGeneral(model, 204800, 128)
	if err != nil {
		t.Fatal(err)
	}
	if s.Base <= 0 {
		t.Fatal("no base prediction")
	}
	if s.ComputeGain <= s.LatencyGain || s.ComputeGain <= s.BandwidthGain {
		t.Errorf("compute gain %.3f should dominate latency %.3f and bandwidth %.3f at 128 PEs",
			s.ComputeGain, s.LatencyGain, s.BandwidthGain)
	}
	if s.CommFraction <= 0 || s.CommFraction >= 1 {
		t.Errorf("comm fraction = %v", s.CommFraction)
	}
	// All gains are genuine improvements, bounded by 50%.
	for name, g := range map[string]float64{
		"latency": s.LatencyGain, "bandwidth": s.BandwidthGain, "compute": s.ComputeGain,
	} {
		if g < 0 || g > 0.5+1e-9 {
			t.Errorf("%s gain out of range: %v", name, g)
		}
	}
}

func TestSensitivityCommGrowsWithScale(t *testing.T) {
	cal := calibrated(t)
	model := NewGeneral(cal, netmodel.QsNetI(), Homogeneous)
	small, err := AnalyzeGeneral(model, 204800, 16)
	if err != nil {
		t.Fatal(err)
	}
	large, err := AnalyzeGeneral(model, 204800, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if large.CommFraction <= small.CommFraction {
		t.Errorf("comm fraction should grow with P: %.3f at 16 vs %.3f at 1024",
			small.CommFraction, large.CommFraction)
	}
	// Latency matters more at scale.
	if large.LatencyGain <= small.LatencyGain {
		t.Errorf("latency gain should grow with P: %.4f vs %.4f",
			small.LatencyGain, large.LatencyGain)
	}
}

func TestAnalyzeGeneralValidation(t *testing.T) {
	if _, err := AnalyzeGeneral(nil, 100, 4); err == nil {
		t.Fatal("nil model accepted")
	}
	cal := &compute.Calibrated{} // empty curves => zero prediction
	model := NewGeneral(cal, netmodel.MustNew("zero-cost network", []netmodel.Segment{{MinBytes: 0}}), Homogeneous)
	if _, err := AnalyzeGeneral(model, 100, 1); err == nil {
		t.Fatal("degenerate base accepted")
	}
}

func TestScaleNet(t *testing.T) {
	net := netmodel.QsNetI()
	half, err := scaleNet(net, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Latency halves, per-byte unchanged, in every segment.
	hs, ns := half.Segments(), net.Segments()
	for i := range ns {
		if hs[i].Latency != ns[i].Latency/2 || hs[i].PerByte != ns[i].PerByte {
			t.Fatalf("segment %d scaled to %+v from %+v", i, hs[i], ns[i])
		}
	}
}
