package phases

import (
	"testing"

	"krak/internal/mesh"
)

func TestTable1Structure(t *testing.T) {
	ps := Table1()
	if len(ps) != Count || Count != 15 {
		t.Fatalf("phase count = %d, want 15", len(ps))
	}
	for i, p := range ps {
		if p.Number != i+1 {
			t.Fatalf("phase %d has number %d", i, p.Number)
		}
		if len(p.AllreduceBytes) != p.SyncPoints {
			t.Fatalf("phase %d: %d allreduce sizes but %d sync points",
				p.Number, len(p.AllreduceBytes), p.SyncPoints)
		}
		if p.Action == "" {
			t.Fatalf("phase %d has no action text", p.Number)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	// Table 1's sync-point column.
	wantSync := []int{2, 1, 3, 1, 1, 3, 1, 1, 1, 1, 2, 1, 1, 1, 2}
	for i, want := range wantSync {
		if got := table[i].SyncPoints; got != want {
			t.Errorf("phase %d sync points = %d, want %d", i+1, got, want)
		}
	}
	// Communication actions per Table 1.
	if !table[1].BoundaryExchange {
		t.Error("phase 2 must do the boundary exchange")
	}
	if table[3].GhostUpdateBytes != 8 {
		t.Error("phase 4 must update ghosts at 8 bytes/node")
	}
	for _, ph := range []int{5, 7} {
		if table[ph-1].GhostUpdateBytes != 16 {
			t.Errorf("phase %d must update ghosts at 16 bytes/node", ph)
		}
	}
	for _, ph := range []int{1, 2, 15} {
		p := table[ph-1]
		if len(p.BcastBytes) != 2 || p.BcastBytes[0] != 4 || p.BcastBytes[1] != 8 {
			t.Errorf("phase %d broadcasts = %v, want [4 8]", ph, p.BcastBytes)
		}
	}
	for _, ph := range []int{3, 6, 8, 9, 10, 11, 12, 13, 14} {
		if table[ph-1].HasPointToPoint() {
			t.Errorf("phase %d is computation only but has point-to-point comm", ph)
		}
	}
	if !table[13].MaterialDependent {
		t.Error("phase 14 must be material dependent (Figure 2)")
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	tot := Table4()
	// Table 4: Bcast 3x4B + 3x8B; Allreduce 9x4B + 13x8B; Gather 1x32B.
	if tot.BcastBySize[4] != 3 || tot.BcastBySize[8] != 3 {
		t.Errorf("bcasts = %v, want 3x4B and 3x8B", tot.BcastBySize)
	}
	if tot.AllreduceBySize[4] != 9 || tot.AllreduceBySize[8] != 13 {
		t.Errorf("allreduces = %v, want 9x4B and 13x8B", tot.AllreduceBySize)
	}
	if tot.GatherBySize[32] != 1 {
		t.Errorf("gathers = %v, want 1x32B", tot.GatherBySize)
	}
	// Total sync points across the iteration must equal total allreduces.
	syncs := 0
	for _, p := range Table1() {
		syncs += p.SyncPoints
	}
	if syncs != 22 {
		t.Errorf("total sync points = %d, want 22", syncs)
	}
}

// table3Boundary reconstructs the Figure 4 / Table 3 example: a boundary of
// 3 H.E. gas faces, 2 aluminum, 3 foam, and 2 more aluminum faces, with
// ghost nodes at the three internal material junctions.
func table3Boundary() *mesh.PairBoundary {
	b := &mesh.PairBoundary{Key: mesh.MakePairKey(0, 1)}
	b.FacesByMaterial[mesh.HEGas] = 3
	b.FacesByMaterial[mesh.AluminumInner] = 2
	b.FacesByMaterial[mesh.Foam] = 3
	b.FacesByMaterial[mesh.AluminumOuter] = 2
	b.FacesByGroup[mesh.GroupHEGas] = 3
	b.FacesByGroup[mesh.GroupAluminum] = 4
	b.FacesByGroup[mesh.GroupFoam] = 3
	b.TotalFaces = 10
	b.GhostNodes = 11
	b.OwnedByA = 6
	b.OwnedByB = 5
	// Junctions: HE|Al, Al|Foam, Foam|Al.
	b.MultiGroupGhosts = 3
	b.MultiGroupGhostsByGroup[mesh.GroupHEGas] = 1
	b.MultiGroupGhostsByGroup[mesh.GroupAluminum] = 3
	b.MultiGroupGhostsByGroup[mesh.GroupFoam] = 2
	return b
}

func TestBoundaryExchangeReproducesTable3(t *testing.T) {
	msgs := BoundaryExchangeMessages(table3Boundary())
	// 3 groups x 6 messages + 6 final = 24 messages.
	if len(msgs) != 24 {
		t.Fatalf("message count = %d, want 24", len(msgs))
	}
	// Tally sizes per Table 3.
	count := map[int]int{}
	for _, m := range msgs {
		count[m.Bytes]++
	}
	want := map[int]int{
		48:  2 + 4, // HE first-two 48 = 3*12+1*12; aluminum remaining-four 48 = 4*12
		36:  4 + 4, // HE remaining-four 36; foam remaining-four 36
		84:  2,     // aluminum first-two 84 = 4*12 + 3*12
		60:  2,     // foam first-two 60 = 3*12 + 2*12
		120: 6,     // final step 120 = 10*12
	}
	for size, n := range want {
		if count[size] != n {
			t.Errorf("messages of %d bytes = %d, want %d (tally %v)", size, count[size], n, count)
		}
	}
}

func TestBoundaryExchangeSkipsAbsentGroups(t *testing.T) {
	b := &mesh.PairBoundary{Key: mesh.MakePairKey(0, 1)}
	b.FacesByGroup[mesh.GroupFoam] = 5
	b.FacesByMaterial[mesh.Foam] = 5
	b.TotalFaces = 5
	msgs := BoundaryExchangeMessages(b)
	// One material step + final step = 12 messages.
	if len(msgs) != 12 {
		t.Fatalf("message count = %d, want 12", len(msgs))
	}
	for _, m := range msgs {
		if m.Bytes != 60 {
			t.Fatalf("single-material sizes should all be 60, got %d", m.Bytes)
		}
	}
}

func TestBoundaryExchangeEmptyBoundary(t *testing.T) {
	b := &mesh.PairBoundary{Key: mesh.MakePairKey(0, 1)}
	if msgs := BoundaryExchangeMessages(b); len(msgs) != 0 {
		t.Fatalf("corner-only boundary should exchange no faces, got %d msgs", len(msgs))
	}
}

func TestGhostUpdateMessages(t *testing.T) {
	b := table3Boundary()
	msgs := AppendGhostUpdateMessages(nil, b, 0, 8)
	if len(msgs) != 2 {
		t.Fatalf("ghost update messages = %d, want 2", len(msgs))
	}
	if msgs[0].Bytes != 8*6 || msgs[1].Bytes != 8*5 {
		t.Fatalf("ghost update sizes = %d,%d want 48,40", msgs[0].Bytes, msgs[1].Bytes)
	}
	// From the other side, local and remote swap.
	msgs = AppendGhostUpdateMessages(nil, b, 1, 16)
	if msgs[0].Bytes != 16*5 || msgs[1].Bytes != 16*6 {
		t.Fatalf("ghost update sizes = %d,%d want 80,96", msgs[0].Bytes, msgs[1].Bytes)
	}
}
