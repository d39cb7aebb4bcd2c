package netmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadSegments(t *testing.T) {
	if _, err := New("x", nil); err == nil {
		t.Fatal("empty segment list accepted")
	}
	if _, err := New("x", []Segment{{MinBytes: 8, Latency: 1e-6}}); err == nil {
		t.Fatal("model without 0-byte segment accepted")
	}
	if _, err := New("x", []Segment{{MinBytes: 0}, {MinBytes: 0}}); err == nil {
		t.Fatal("duplicate boundary accepted")
	}
	if _, err := New("x", []Segment{{MinBytes: 0, Latency: -1}}); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew("bad", nil)
}

func TestMsgTimeEquation4(t *testing.T) {
	m := MustNew("test", []Segment{
		{MinBytes: 0, Latency: 10e-6, PerByte: 1e-8},
		{MinBytes: 100, Latency: 20e-6, PerByte: 1e-9},
	})
	// In the first segment: L + S*TB.
	if got, want := m.MsgTime(50), 10e-6+50*1e-8; math.Abs(got-want) > 1e-15 {
		t.Fatalf("MsgTime(50) = %v, want %v", got, want)
	}
	// Exactly at the boundary the second segment applies.
	if got, want := m.MsgTime(100), 20e-6+100*1e-9; math.Abs(got-want) > 1e-15 {
		t.Fatalf("MsgTime(100) = %v, want %v", got, want)
	}
	// Negative sizes are clamped to zero.
	if got := m.MsgTime(-5); got != 10e-6 {
		t.Fatalf("MsgTime(-5) = %v, want latency only", got)
	}
}

func TestLatencyAndBandwidth(t *testing.T) {
	m := QsNetI()
	if m.MsgTime(0) <= 0 {
		t.Fatal("latency must be positive")
	}
	// Effective bandwidth S/Tmsg(S) should approach, but not exceed, the
	// asymptotic rate.
	bw := float64(10<<20) / m.MsgTime(10<<20)
	if bw < 250e6 || bw > 320e6 {
		t.Fatalf("10 MiB effective bandwidth = %.0f B/s, want ~305 MB/s", bw)
	}
}

func TestTreeDepth(t *testing.T) {
	cases := []struct{ p, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{128, 7}, {512, 9}, {1024, 10},
	}
	for _, c := range cases {
		if got := TreeDepth(c.p); got != c.want {
			t.Errorf("TreeDepth(%d) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestCollectiveEquations(t *testing.T) {
	m := MustNew("flat", []Segment{{MinBytes: 0, Latency: 1e-6}})
	const p = 512 // log2 = 9
	if got, want := m.Bcast(p, 4), 9e-6; math.Abs(got-want) > 1e-15 {
		t.Fatalf("Bcast = %v, want %v", got, want)
	}
	if got, want := m.Allreduce(p, 8), 18e-6; math.Abs(got-want) > 1e-15 {
		t.Fatalf("Allreduce = %v, want %v", got, want)
	}
	if got, want := m.Gather(p, 32), 9e-6; math.Abs(got-want) > 1e-15 {
		t.Fatalf("Gather = %v, want %v", got, want)
	}
	// Single processor: all collectives are free.
	if m.Bcast(1, 8) != 0 || m.Allreduce(1, 8) != 0 || m.Gather(1, 8) != 0 {
		t.Fatal("collectives on 1 PE should cost 0")
	}
}

func TestPresetsAreOrdered(t *testing.T) {
	// For an 8-byte message: InfiniBand < QsNet < GigE latency ordering.
	ib, qs, ge := Infiniband(), QsNetI(), GigE()
	if !(ib.MsgTime(8) < qs.MsgTime(8) && qs.MsgTime(8) < ge.MsgTime(8)) {
		t.Fatalf("unexpected latency ordering: ib=%v qs=%v ge=%v",
			ib.MsgTime(8), qs.MsgTime(8), ge.MsgTime(8))
	}
	if MustNew("zero-cost network", []Segment{{MinBytes: 0}}).MsgTime(1<<20) != 0 {
		t.Fatal("zero model should be free")
	}
}

func TestSegmentsCopy(t *testing.T) {
	m := QsNetI()
	segs := m.Segments()
	segs[0].Latency = 999
	if m.MsgTime(0) == 999 {
		t.Fatal("Segments returned internal storage")
	}
	if m.Name() == "" {
		t.Fatal("name missing")
	}
}

// Property: MsgTime is monotonically non-decreasing in S for all presets.
// This is the property the paper's piecewise model relies on when it argues
// that splitting a boundary exchange into per-material messages costs more.
func TestMsgTimeMonotoneProperty(t *testing.T) {
	models := []*Model{QsNetI(), GigE(), Infiniband()}
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		for _, m := range models {
			if m.MsgTime(x) > m.MsgTime(y)+1e-18 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: collectives scale with ceil(log2 P): doubling P adds at most one
// more tree level's cost.
func TestCollectiveLogScalingProperty(t *testing.T) {
	m := QsNetI()
	f := func(pRaw uint8) bool {
		p := int(pRaw)%1000 + 2
		t1 := m.Bcast(p, 8)
		t2 := m.Bcast(2*p, 8)
		diff := t2 - t1
		// Doubling P adds exactly one level (within rounding of ceil).
		return diff >= 0 && diff <= 2*m.MsgTime(8)+1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
