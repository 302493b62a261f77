package clicktable

import (
	"math/rand"
	"testing"
)

// benchTable is a shuffled 150k-row table with a batch_detect-like shape:
// 20k users × 4k items, a sixth of the rows repeating an earlier pair.
func benchTable() *Table {
	const users, items, rows = 20000, 4000, 150000
	rng := rand.New(rand.NewSource(1))
	t := New(rows)
	for i := 0; i < rows; i++ {
		if i%6 == 5 {
			r := t.Row(rng.Intn(i))
			t.Append(r.UserID, r.ItemID, 1+uint32(rng.Intn(5)))
			continue
		}
		t.Append(uint32(rng.Intn(users)), uint32(rng.Intn(items)), 1+uint32(rng.Intn(5)))
	}
	return t
}

// BenchmarkToGraph times the TableToBiGraph step on benchTable, and on its
// aggregate, the rows in (user, item) order a stream's rebuild hands over.
func BenchmarkToGraph(b *testing.B) {
	t := benchTable()
	for _, c := range []struct {
		name string
		t    *Table
	}{{"shuffled", t}, {"aggregated", t.Aggregate()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.t.ToGraph()
			}
		})
	}
}

// BenchmarkAggregate times Aggregate on benchTable (a compaction's or a
// restart's whole history), on a day of about 5.7k rows over the same ID
// ranges (a bulk delta) — both ordered by counting — and on a 128-row
// delta over them, which sorts.
func BenchmarkAggregate(b *testing.B) {
	full := benchTable()
	slice := func(n int) *Table {
		return &Table{users: full.users[:n], items: full.items[:n], clicks: full.clicks[:n]}
	}
	for _, c := range []struct {
		name string
		t    *Table
	}{{"shuffled", full}, {"day", slice(5700)}, {"delta128", slice(128)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.t.Aggregate()
			}
		})
	}
}
