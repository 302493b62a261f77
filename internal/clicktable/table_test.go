package clicktable

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bipartite"
)

func sampleTable() *Table {
	t := New(8)
	t.Append(1, 1, 3)
	t.Append(1, 2, 1)
	t.Append(2, 1, 2)
	t.Append(2, 2, 5)
	t.Append(2, 3, 1)
	t.Append(3, 3, 7)
	return t
}

func TestAppendAndRow(t *testing.T) {
	tbl := sampleTable()
	if tbl.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tbl.Len())
	}
	want := Record{UserID: 2, ItemID: 2, Clicks: 5}
	if got := tbl.Row(3); got != want {
		t.Errorf("Row(3) = %+v, want %+v", got, want)
	}
}

func TestAppendDropsZeroClicks(t *testing.T) {
	tbl := New(1)
	tbl.Append(1, 1, 0)
	if tbl.Len() != 0 {
		t.Errorf("zero-click row was kept")
	}
}

func TestEachEarlyStop(t *testing.T) {
	tbl := sampleTable()
	n := 0
	tbl.Each(func(Record) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("visited %d rows, want 2", n)
	}
}

func TestAggregateMergesDuplicates(t *testing.T) {
	tbl := New(4)
	tbl.Append(5, 7, 2)
	tbl.Append(1, 1, 1)
	tbl.Append(5, 7, 3)
	tbl.Append(5, 6, 1)
	agg := tbl.Aggregate()
	if agg.Len() != 3 {
		t.Fatalf("aggregated Len = %d, want 3", agg.Len())
	}
	var got []Record
	agg.Each(func(r Record) bool { got = append(got, r); return true })
	want := []Record{{1, 1, 1}, {5, 6, 1}, {5, 7, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("aggregated rows = %+v, want %+v", got, want)
	}
	if tbl.Len() != 4 {
		t.Error("Aggregate mutated the receiver")
	}
}

func TestScale(t *testing.T) {
	tbl := sampleTable()
	tbl.Append(1, 1, 2) // duplicate pair: must not raise Edges
	s := tbl.Scale()
	if s.Users != 3 || s.Items != 3 || s.Edges != 6 || s.TotalClicks != 21 {
		t.Errorf("Scale = %+v, want {3 3 6 21}", s)
	}
}

func TestToGraphRoundTrip(t *testing.T) {
	tbl := sampleTable()
	g := tbl.ToGraph()
	if g.LiveEdges() != 6 || g.LiveClicks() != 19 {
		t.Fatalf("graph accounting = %v", g)
	}
	if got, want := g.Weight(2, 2), uint32(5); got != want {
		t.Errorf("Weight(2,2) = %d, want %d", got, want)
	}
	back := New(g.LiveEdges())
	g.EachLiveUser(func(u bipartite.NodeID) bool {
		g.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
			back.Append(u, v, w)
			return true
		})
		return true
	})
	if back.Len() != tbl.Len() {
		t.Fatalf("round-trip Len = %d, want %d", back.Len(), tbl.Len())
	}
	if back.Scale() != tbl.Scale() {
		t.Errorf("round-trip scale = %+v, want %+v", back.Scale(), tbl.Scale())
	}
}

func TestComputeStats(t *testing.T) {
	tbl := sampleTable()
	s := ComputeStats(tbl)
	// User totals: u1=4, u2=8, u3=7 → mean 19/3; counts 2,3,1 → 2.
	if !almost(s.User.AvgClicks, 19.0/3.0) {
		t.Errorf("User.AvgClicks = %v, want %v", s.User.AvgClicks, 19.0/3.0)
	}
	if !almost(s.User.AvgCount, 2.0) {
		t.Errorf("User.AvgCount = %v, want 2", s.User.AvgCount)
	}
	// Item totals: i1=5, i2=6, i3=8 → mean 19/3; counts 2,2,2 → 2.
	if !almost(s.Item.AvgClicks, 19.0/3.0) {
		t.Errorf("Item.AvgClicks = %v, want %v", s.Item.AvgClicks, 19.0/3.0)
	}
	if !almost(s.Item.AvgCount, 2.0) {
		t.Errorf("Item.AvgCount = %v, want 2", s.Item.AvgCount)
	}
	wantVar := (25.0+36+64)/3 - (19.0/3)*(19.0/3)
	if !almost(s.Item.StdevClicks, math.Sqrt(wantVar)) {
		t.Errorf("Item.StdevClicks = %v, want %v", s.Item.StdevClicks, math.Sqrt(wantVar))
	}
}

func TestComputeStatsDuplicateRows(t *testing.T) {
	tbl := New(2)
	tbl.Append(1, 1, 2)
	tbl.Append(1, 1, 3)
	s := ComputeStats(tbl)
	if !almost(s.User.AvgClicks, 5) || !almost(s.User.AvgCount, 1) {
		t.Errorf("duplicate rows: %+v", s.User)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(New(0))
	if s.User != (SideStats{}) || s.Item != (SideStats{}) {
		t.Errorf("empty stats = %+v, want zeros", s)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
