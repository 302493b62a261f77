package bipartite_test

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
)

// shuffledTable is a click table over users × items in random row order:
// rows distinct (user, item) pairs, then dups of them repeated.
func shuffledTable(seed int64, users, items, rows, dups int, weight func(*rand.Rand) uint32) *clicktable.Table {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]uint32]bool, rows)
	var pairs [][2]uint32
	for len(pairs) < rows {
		p := [2]uint32{uint32(rng.Intn(users)), uint32(rng.Intn(items))}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	for i := 0; i < dups; i++ {
		pairs = append(pairs, pairs[rng.Intn(rows)])
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	t := clicktable.New(len(pairs))
	for _, p := range pairs {
		t.Append(p[0], p[1], weight(rng))
	}
	return t
}

// sortedRows is t's rows reordered by (user, item), duplicates kept as
// separate, adjacent rows.
func sortedRows(t *clicktable.Table) *clicktable.Table {
	var rows []clicktable.Record
	t.Each(func(r clicktable.Record) bool {
		rows = append(rows, r)
		return true
	})
	slices.SortStableFunc(rows, func(a, b clicktable.Record) int {
		return cmp.Or(cmp.Compare(a.UserID, b.UserID), cmp.Compare(a.ItemID, b.ItemID))
	})
	out := clicktable.New(len(rows))
	for _, r := range rows {
		out.AppendRecord(r)
	}
	return out
}

// hubTable is a shuffled table in which one user clicks 5k items and one
// item is clicked by 5k users, over light background traffic.
func hubTable(seed int64) *clicktable.Table {
	rng := rand.New(rand.NewSource(seed))
	var rows []clicktable.Record
	for i := uint32(0); i < 5000; i++ {
		rows = append(rows, clicktable.Record{UserID: 17, ItemID: i, Clicks: 1 + uint32(rng.Intn(4))},
			clicktable.Record{UserID: i, ItemID: 23, Clicks: 1 + uint32(rng.Intn(4))},
			clicktable.Record{UserID: uint32(rng.Intn(6000)), ItemID: uint32(rng.Intn(6000)), Clicks: 1})
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	t := clicktable.New(len(rows))
	for _, r := range rows {
		t.AppendRecord(r)
	}
	return t
}

// serialOf builds t's graph through the Builder's sort-everything reference.
func serialOf(t *clicktable.Table) *bipartite.Graph {
	b := bipartite.NewBuilder(0, 0)
	t.Each(func(r clicktable.Record) bool {
		b.Add(r.UserID, r.ItemID, r.Clicks)
		return true
	})
	return b.BuildSerial()
}

// TestToGraphMatchesSerial pins the table → graph build, which reads the
// table's columns in place, against the reference build of the same rows.
func TestToGraphMatchesSerial(t *testing.T) {
	small := func(rng *rand.Rand) uint32 { return uint32(1 + rng.Intn(9)) }
	huge := func(rng *rand.Rand) uint32 { return math.MaxUint32 - uint32(rng.Intn(3)) }
	for name, tbl := range map[string]*clicktable.Table{
		"empty":                  clicktable.New(0),
		"shuffled with dups":     shuffledTable(1, 900, 250, 20000, 10000, small),
		"heavy duplication":      shuffledTable(2, 6, 10, 50, 20000, small),
		"sums saturate":          shuffledTable(3, 40, 30, 600, 900, huge),
		"aggregated then merged": shuffledTable(4, 300, 80, 4000, 0, small).Aggregate(),
		"ordered with dups":      sortedRows(shuffledTable(6, 300, 80, 4000, 3000, small)),
		"ordered, sums saturate": sortedRows(shuffledTable(7, 40, 30, 600, 900, huge)),
		"ordered but the last":   outOfOrderLast(sortedRows(shuffledTable(8, 300, 80, 4000, 3000, small))),
		"hub user and hub item":  hubTable(9),
	} {
		t.Run(name, func(t *testing.T) {
			if d := bipartite.GraphDiff(tbl.ToGraph(), serialOf(tbl)); d != "" {
				t.Fatal(d)
			}
		})
	}

	// Zero-weight records are skipped outright: the ones carrying the
	// largest IDs do not widen the graph.
	users := []bipartite.NodeID{0, 9, 2, 1, 2, 40}
	items := []bipartite.NodeID{3, 1, 77, 3, 1, 0}
	weights := []uint32{2, 0, 0, 5, 1, 0}
	ref := bipartite.NewBuilder(0, 0)
	for i := range users {
		ref.Add(users[i], items[i], weights[i])
	}
	got := bipartite.FromColumns(users, items, weights)
	if got.NumUsers() != 3 || got.NumItems() != 4 {
		t.Fatalf("FromColumns sized %d users × %d items, want 3 × 4", got.NumUsers(), got.NumItems())
	}
	if d := bipartite.GraphDiff(got, ref.BuildSerial()); d != "" {
		t.Fatal(d)
	}
}

// outOfOrderLast appends one row that sorts before t's last row.
func outOfOrderLast(t *clicktable.Table) *clicktable.Table {
	last := t.Row(t.Len() - 1)
	t.Append(0, last.ItemID/2, 4)
	return t
}

// TestToGraphAllocatesOnlyTheGraph: a table without duplicate rows becomes a
// graph with no row-sized allocation beyond the graph's own two arc arenas
// (8 bytes per row each) and the per-user row offsets, whether its rows are
// shuffled or ordered by (user, item).
func TestToGraphAllocatesOnlyTheGraph(t *testing.T) {
	if bipartite.RaceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const users, items, rows = 20000, 4000, 150000
	shuffled := shuffledTable(5, users, items, rows, 0, func(*rand.Rand) uint32 { return 1 })
	for name, tbl := range map[string]*clicktable.Table{"shuffled": shuffled, "aggregated": shuffled.Aggregate()} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g := tbl.ToGraph()
			runtime.ReadMemStats(&after)
			if g.LiveEdges() != rows {
				t.Fatalf("%d edges, want %d", g.LiveEdges(), rows)
			}
			got := after.TotalAlloc - before.TotalAlloc
			bound := uint64(16*rows + 8*(g.NumUsers()+1) + 40*(g.NumUsers()+g.NumItems()) + 4096)
			t.Logf("ToGraph of %d rows: %d bytes allocated (bound %d)", rows, got, bound)
			if got > bound {
				t.Fatalf("ToGraph of %d rows allocated %d bytes, want ≤ %d: a staging copy of the table costs %d more",
					rows, got, bound, 12*rows)
			}
		})
	}
}

// TestToGraphRetainsOnlyMergedArcs: once duplicate rows are merged, the
// graph keeps arc arenas of the merged length alive, whatever the row
// order, not ones sized to the raw rows.
func TestToGraphRetainsOnlyMergedArcs(t *testing.T) {
	if bipartite.RaceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const users, items, rows, dups = 20000, 4000, 100000, 100000
	shuffled := shuffledTable(6, users, items, rows, dups, func(*rand.Rand) uint32 { return 1 })
	for name, tbl := range map[string]*clicktable.Table{"shuffled": shuffled, "ordered": sortedRows(shuffled)} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			g := tbl.ToGraph()
			runtime.GC()
			runtime.ReadMemStats(&after)
			kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			bound := int64(16*rows + 40*(g.NumUsers()+g.NumItems()) + 4096)
			t.Logf("ToGraph of %d rows merging to %d: %d bytes kept (bound %d)", rows+dups, g.LiveEdges(), kept, bound)
			if g.LiveEdges() != rows || kept > bound {
				t.Fatalf("%d edges (want %d), %d bytes kept (want ≤ %d)", g.LiveEdges(), rows, kept, bound)
			}
			runtime.KeepAlive(g)
		})
	}
}

// TestFromColumnsRejectsUnequalColumns: a short or long column panics with
// the three lengths, instead of a bare index error or a silent truncation.
func TestFromColumnsRejectsUnequalColumns(t *testing.T) {
	ids := []bipartite.NodeID{0, 1, 2}
	for name, tc := range map[string]struct {
		users, items []bipartite.NodeID
		weights      []uint32
		want         string
	}{
		"short users": {ids[:2], ids, []uint32{1, 1, 1}, "2 users, 3 items, 3 weights"},
		"short items": {ids, ids[:1], []uint32{1, 1, 1}, "3 users, 1 items, 3 weights"},
		"long items":  {ids[:2], ids, []uint32{1, 1}, "2 users, 3 items, 2 weights"},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			bipartite.FromColumns(tc.users, tc.items, tc.weights)
		})
	}
}
