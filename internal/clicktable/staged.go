package clicktable

// Staged is a click table split into an aggregated base and a pending tail,
// the table-side half of delta-maintained graph builds: the base stays
// sorted and duplicate-free while fresh rows accumulate in the pending
// tail, so the owner can ask for just the rows that arrived since its last
// build (Delta) instead of re-aggregating the full history, and fold the
// tail into the base only at compaction time (Compact).
//
// The owner tracks which prefix of the pending tail its derived state
// (e.g. a patched bipartite graph) already reflects via MarkPatched; rows
// beyond that watermark are the current delta.
//
// Staged is not safe for concurrent use; the owner serializes access.
type Staged struct {
	base    *Table // aggregated: sorted by (user, item), unique pairs
	pending *Table // raw rows appended since the last Compact
	patched int    // pending rows [0, patched) already applied by the owner
}

// NewStaged returns a staged table whose pending tail starts as initial
// (nil or empty starts empty). Ownership of initial transfers to the
// Staged; callers that keep using the table must pass initial.Clone().
// Everything starts in the pending tail, so the owner's first build sees
// the whole history as delta — a full build.
func NewStaged(initial *Table) *Staged {
	if initial == nil {
		initial = New(0)
	}
	return &Staged{base: New(0), pending: initial}
}

// Append adds a row to the pending tail. Zero-click rows are dropped,
// matching Table.Append.
func (s *Staged) Append(user, item, clicks uint32) {
	s.pending.Append(user, item, clicks)
}

// AppendRecord adds a row from a Record value.
func (s *Staged) AppendRecord(r Record) { s.pending.AppendRecord(r) }

// Len returns the total number of rows: aggregated base plus raw pending.
func (s *Staged) Len() int { return s.base.Len() + s.pending.Len() }

// BaseLen returns the number of aggregated base rows (distinct (user, item)
// pairs as of the last Compact).
func (s *Staged) BaseLen() int { return s.base.Len() }

// PendingLen returns the number of raw rows appended since the last
// Compact, patched or not — the growth the compaction policy measures
// against the base.
func (s *Staged) PendingLen() int { return s.pending.Len() }

// DeltaLen returns the number of raw pending rows not yet covered by
// MarkPatched: the work outstanding for the owner's next build.
func (s *Staged) DeltaLen() int { return s.pending.Len() - s.patched }

// Base returns the aggregated base table. The caller must not mutate it.
func (s *Staged) Base() *Table { return s.base }

// Each calls fn for every row — base rows in (user, item) order, then
// pending rows in arrival order — stopping early if fn returns false. The
// iteration order is deterministic, which the durability layer relies on
// when serializing snapshots.
func (s *Staged) Each(fn func(Record) bool) {
	stopped := false
	s.base.Each(func(r Record) bool {
		if !fn(r) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	s.pending.Each(fn)
}

// Delta is the aggregate view of the unpatched pending rows: the records
// merged and sorted the same way Table.Aggregate sorts them — what a graph
// patcher splices in.
type Delta struct {
	Records *Table
}

// Delta aggregates the pending rows beyond the patched watermark where they
// lie, with no staging copy. The receiver is unchanged, and the returned
// records may share its storage: they are read-only. Call MarkPatched once
// the returned delta has been applied.
func (s *Staged) Delta() Delta {
	p, n := s.patched, s.pending.Len()
	tail := &Table{users: s.pending.users[p:n:n], items: s.pending.items[p:n:n], clicks: s.pending.clicks[p:n:n]}
	return Delta{Records: tail.Aggregate()}
}

// MarkPatched records that every current pending row has been applied to
// the owner's derived state; subsequent Delta calls cover only rows
// appended after this point.
func (s *Staged) MarkPatched() { s.patched = s.pending.Len() }

// Compact folds the pending tail into the base: the tail alone is
// aggregated, then merged with the sorted, duplicate-free base into one new
// table, equal pairs summed with saturation — the table a full
// re-aggregation of the history gives. The tail empties and the patched
// watermark resets. With an empty tail there is nothing to do.
func (s *Staged) Compact() {
	if s.pending.Len() == 0 {
		return
	}
	a, b := s.base, s.pending.Aggregate()
	out := New(a.Len() + b.Len())
	for i, j := 0, 0; i < a.Len() || j < b.Len(); {
		if j == b.Len() || i < a.Len() && a.key(i) <= b.key(j) {
			out.Append(a.users[i], a.items[i], a.clicks[i])
			i++
		} else {
			out.Append(b.users[j], b.items[j], b.clicks[j])
			j++
		}
	}
	s.base = out.mergeRuns()
	s.pending = New(0)
	s.patched = 0
}

// Clone returns a deep copy sharing nothing with the receiver, including
// the patched watermark — the durability layer snapshots staged tables this
// way under the ingest lock.
func (s *Staged) Clone() *Staged {
	return &Staged{base: s.base.Clone(), pending: s.pending.Clone(), patched: s.patched}
}
