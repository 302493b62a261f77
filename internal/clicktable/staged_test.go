package clicktable

import (
	"math/rand"
	"reflect"
	"testing"
)

func rows(t *Table) []Record {
	var out []Record
	t.Each(func(r Record) bool { out = append(out, r); return true })
	return out
}

func stagedRows(s *Staged) []Record {
	var out []Record
	s.Each(func(r Record) bool { out = append(out, r); return true })
	return out
}

func TestAggregateFastPathReturnsReceiver(t *testing.T) {
	tbl := sampleTable() // already strictly increasing by (user, item)
	if got := tbl.Aggregate(); got != tbl {
		t.Error("aggregated input must be returned as-is")
	}
	unsorted := New(3)
	unsorted.Append(2, 1, 1)
	unsorted.Append(1, 1, 1)
	agg := unsorted.Aggregate()
	if agg == unsorted {
		t.Fatal("unsorted input took the fast path")
	}
	// Idempotence: re-aggregating shares no extra work — same pointer out.
	if again := agg.Aggregate(); again != agg {
		t.Error("Aggregate(Aggregate(t)) must return the same table")
	}
}

func TestAggregateFastPathRejectsDuplicates(t *testing.T) {
	tbl := New(2)
	tbl.Append(1, 1, 1)
	tbl.Append(1, 1, 2) // sorted but duplicate pair: must still merge
	agg := tbl.Aggregate()
	if agg == tbl {
		t.Fatal("duplicate pairs took the fast path")
	}
	if want := []Record{{1, 1, 3}}; !reflect.DeepEqual(rows(agg), want) {
		t.Errorf("rows = %+v, want %+v", rows(agg), want)
	}
}

func TestAggregateEmpty(t *testing.T) {
	if got := New(0).Aggregate(); got.Len() != 0 {
		t.Errorf("empty aggregate has %d rows", got.Len())
	}
}

// TestStagedMatchesPlainAggregate drives a Staged through random appends
// interleaved with Delta/MarkPatched/Compact and checks, at every step,
// that its total row multiset aggregates to exactly what one flat table
// receiving the same appends aggregates to — the invariant that makes the
// staged table a drop-in source for graph builds.
func TestStagedMatchesPlainAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewStaged(nil)
	flat := New(0)
	for step := 0; step < 500; step++ {
		u, v, c := uint32(rng.Intn(30)), uint32(rng.Intn(20)), uint32(rng.Intn(4))
		s.Append(u, v, c)
		flat.Append(u, v, c)
		switch step % 7 {
		case 2:
			s.MarkPatched()
		case 5:
			s.Compact()
		}
		if s.Len() != s.BaseLen()+s.PendingLen() {
			t.Fatalf("Len %d != BaseLen %d + PendingLen %d", s.Len(), s.BaseLen(), s.PendingLen())
		}
		all := New(s.Len())
		s.Each(func(r Record) bool { all.AppendRecord(r); return true })
		if got, want := rows(all.Aggregate()), rows(flat.Aggregate()); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: staged aggregate diverged:\n got %+v\nwant %+v", step, got, want)
		}
	}
}

func TestStagedDelta(t *testing.T) {
	s := NewStaged(nil)
	s.Append(5, 2, 1)
	s.Append(1, 9, 2)
	s.Compact() // base: {(1,9), (5,2)}
	s.Append(3, 1, 4)
	s.MarkPatched() // patched rows leave the delta
	s.Append(7, 1, 2)
	s.Append(3, 4, 1)
	s.Append(7, 1, 3) // duplicate pair: delta must aggregate it

	if got := s.DeltaLen(); got != 3 {
		t.Fatalf("DeltaLen = %d, want 3", got)
	}
	if got := s.PendingLen(); got != 4 {
		t.Fatalf("PendingLen = %d, want 4", got)
	}
	d := s.Delta()
	wantRecords := []Record{{3, 4, 1}, {7, 1, 5}}
	if !reflect.DeepEqual(rows(d.Records), wantRecords) {
		t.Errorf("Delta records = %+v, want %+v", rows(d.Records), wantRecords)
	}

	s.MarkPatched()
	if got := s.DeltaLen(); got != 0 {
		t.Errorf("DeltaLen after MarkPatched = %d, want 0", got)
	}
	if empty := s.Delta(); empty.Records.Len() != 0 {
		t.Errorf("empty delta = %+v", empty)
	}
}

func TestStagedCompactFoldsPending(t *testing.T) {
	s := NewStaged(nil)
	s.Append(2, 2, 1)
	s.Compact()
	s.Append(2, 2, 3)
	s.Append(1, 1, 1)
	s.Compact()
	if s.PendingLen() != 0 || s.DeltaLen() != 0 {
		t.Fatalf("pending after compact: %d/%d", s.PendingLen(), s.DeltaLen())
	}
	want := []Record{{1, 1, 1}, {2, 2, 4}}
	if !reflect.DeepEqual(rows(s.Base()), want) {
		t.Errorf("base = %+v, want %+v", rows(s.Base()), want)
	}
	// Compacting with nothing pending is free and changes nothing.
	base := s.Base()
	s.Compact()
	if s.Base() != base {
		t.Error("no-op compact rebuilt the base")
	}
}

func TestStagedNewTakesOwnership(t *testing.T) {
	initial := New(2)
	initial.Append(1, 1, 1)
	s := NewStaged(initial)
	if s.PendingLen() != 1 || s.BaseLen() != 0 {
		t.Fatalf("initial rows must start pending: base %d pending %d", s.BaseLen(), s.PendingLen())
	}
	if want := []Record{{1, 1, 1}}; !reflect.DeepEqual(stagedRows(s), want) {
		t.Errorf("rows = %+v, want %+v", stagedRows(s), want)
	}
}

func TestStagedCloneIsDeep(t *testing.T) {
	s := NewStaged(nil)
	s.Append(1, 1, 1)
	s.Compact()
	s.Append(2, 2, 2)
	s.MarkPatched()
	s.Append(3, 3, 3)

	c := s.Clone()
	s.Append(4, 4, 4)
	s.Compact()

	if c.BaseLen() != 1 || c.PendingLen() != 2 || c.DeltaLen() != 1 {
		t.Errorf("clone state: base %d pending %d delta %d, want 1/2/1",
			c.BaseLen(), c.PendingLen(), c.DeltaLen())
	}
	want := []Record{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}}
	if !reflect.DeepEqual(stagedRows(c), want) {
		t.Errorf("clone rows = %+v, want %+v", stagedRows(c), want)
	}
}

func TestStagedEachEarlyStop(t *testing.T) {
	s := NewStaged(nil)
	s.Append(1, 1, 1)
	s.Compact()
	s.Append(2, 2, 2)
	n := 0
	s.Each(func(Record) bool { n++; return false })
	if n != 1 {
		t.Errorf("visited %d rows, want 1", n)
	}
}
