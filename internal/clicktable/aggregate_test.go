package clicktable

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// sortAggregate is the reference Aggregate: the rows put in (user, item)
// order by a comparison sort, then each run of equal pairs summed in
// uint64 and capped at MaxUint32.
func sortAggregate(t *Table) []Record {
	rs := rows(t)
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].UserID != rs[j].UserID {
			return rs[i].UserID < rs[j].UserID
		}
		return rs[i].ItemID < rs[j].ItemID
	})
	var out []Record
	for i := 0; i < len(rs); {
		r, sum := rs[i], uint64(0)
		for ; i < len(rs) && rs[i].UserID == r.UserID && rs[i].ItemID == r.ItemID; i++ {
			sum += uint64(rs[i].Clicks)
		}
		r.Clicks = uint32(min(sum, math.MaxUint32))
		out = append(out, r)
	}
	return out
}

// randomTable draws n rows with users in [uLo, uLo+uSpan) and items in
// [vLo, vLo+vSpan) (spans of 0 mean the whole uint32 range above the low
// end), clicks from clicks.
func randomTable(rng *rand.Rand, n int, uLo, uSpan, vLo, vSpan uint32, clicks func() uint32) *Table {
	draw := func(lo, span uint32) uint32 {
		if span == 0 {
			return lo + uint32(rng.Int63n(int64(math.MaxUint32-lo)+1))
		}
		return lo + uint32(rng.Intn(int(span)))
	}
	t := New(n)
	for i := 0; i < n; i++ {
		t.Append(draw(uLo, uSpan), draw(vLo, vSpan), clicks())
	}
	return t
}

// TestAggregateMatchesSortOracle: on every input shape — counting-sized ID
// ranges, ranges too wide for counting, heavy duplicates, saturating sums,
// the smallest tables and aggregated input — Aggregate returns exactly the
// reference rows and leaves its receiver unchanged.
func TestAggregateMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	small := func() uint32 { return 1 + uint32(rng.Intn(5)) }
	huge := func() uint32 { return math.MaxUint32 - uint32(rng.Intn(3)) }
	agg := New(4)
	agg.Append(1, 2, 3)
	agg.Append(1, 9, 1)
	agg.Append(7, 0, math.MaxUint32)
	agg.Append(math.MaxUint32, math.MaxUint32, 2)
	one := New(1)
	one.Append(5, 5, 5)
	cases := []struct {
		name string
		t    *Table
	}{
		{"empty", New(0)},
		{"one row", one},
		{"aggregated", agg},
		// Counting: ID ranges from 0 well inside n·log₂n.
		{"dense", randomTable(rng, 5000, 0, 300, 0, 200, small)},
		{"heavy duplicates", randomTable(rng, 4000, 10, 6, 20, 4, small)},
		{"saturation", randomTable(rng, 2000, 0, 8, 0, 8, huge)},
		{"one user", randomTable(rng, 500, 3, 1, 0, 1000, small)},
		{"one item", randomTable(rng, 500, 0, 1000, 3, 1, small)},
		// Sorting: ranges wider than n·log₂n.
		{"narrow near MaxUint32", randomTable(rng, 3000, math.MaxUint32-400, 400, math.MaxUint32-50, 50, small)},
		{"sparse", randomTable(rng, 128, 0, 20000, 0, 4000, small)},
		{"wide", randomTable(rng, 3000, 0, 0, 0, 0, small)},
		{"wide users narrow items", randomTable(rng, 1000, 0, 0, 0, 30, small)},
		{"wide saturation", randomTable(rng, 600, 0, 0, 0, 2, huge)},
		{"two rows", randomTable(rng, 2, 0, 0, 0, 0, small)},
	}
	// A wide table with every row repeated, shuffled.
	wideDup := randomTable(rng, 400, 0, 0, 0, 0, small)
	for _, i := range rng.Perm(wideDup.Len()) {
		r := wideDup.Row(i)
		wideDup.Append(r.UserID, r.ItemID, r.Clicks)
	}
	cases = append(cases, struct {
		name string
		t    *Table
	}{"wide duplicates", wideDup})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := rows(c.t)
			want := sortAggregate(c.t)
			got := c.t.Aggregate()
			if gotRows := rows(got); len(gotRows) != len(want) {
				t.Fatalf("%d rows, want %d", len(gotRows), len(want))
			} else {
				for i := range want {
					if gotRows[i] != want[i] {
						t.Fatalf("row %d = %+v, want %+v", i, gotRows[i], want[i])
					}
				}
			}
			if after := rows(c.t); len(after) != len(before) {
				t.Fatalf("receiver changed length: %d, was %d", len(after), len(before))
			} else {
				for i := range before {
					if after[i] != before[i] {
						t.Fatalf("receiver row %d changed: %+v, was %+v", i, after[i], before[i])
					}
				}
			}
			if c.t.aggregated() != (got == c.t) {
				t.Fatalf("aggregated input %v, but receiver returned %v", c.t.aggregated(), got == c.t)
			}
		})
	}
}

// TestAggregateSmallDeltaAllocatesNoRangeArray: a stream's small delta, 128
// rows over a 20k-user ID range, allocates its output and a sort buffer
// (3.6 KB), not per-ID cursors the size of the range (80 KB).
func TestAggregateSmallDeltaAllocatesNoRangeArray(t *testing.T) {
	const n, users, items, runs = 128, 20000, 4000, 20
	delta := randomTable(rand.New(rand.NewSource(3)), n, 0, users, 0, items, func() uint32 { return 1 })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		delta.Aggregate()
	}
	runtime.ReadMemStats(&after)
	if got, bound := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(users); got > bound {
		t.Fatalf("Aggregate of %d rows over %d users allocated %d bytes, want ≤ %d", n, users, got, bound)
	}
}
