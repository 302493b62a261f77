// Package clicktable implements the user-item click table that the paper
// calls TaoBao_UI_Clicks: a three-column relation (User_ID, Item_ID, Click)
// holding aggregated click counts, together with the scale and statistics
// computations of the paper's Tables I and II and the conversion to the
// bipartite click graph (the TableToBiGraph step of Algorithm 2).
package clicktable

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/bipartite"
)

// Record is one row of the click table: user UserID clicked item ItemID
// Clicks times.
type Record struct {
	UserID uint32
	ItemID uint32
	Clicks uint32
}

// Table is an in-memory click table. Rows are stored column-wise to keep
// large tables compact and scan-friendly.
type Table struct {
	users  []uint32
	items  []uint32
	clicks []uint32
}

// New returns an empty table with capacity for n rows.
func New(n int) *Table {
	return &Table{
		users:  make([]uint32, 0, n),
		items:  make([]uint32, 0, n),
		clicks: make([]uint32, 0, n),
	}
}

// Append adds a row. Zero-click rows are dropped, matching the semantics of
// an aggregated click log.
func (t *Table) Append(user, item, clicks uint32) {
	if clicks == 0 {
		return
	}
	t.users = append(t.users, user)
	t.items = append(t.items, item)
	t.clicks = append(t.clicks, clicks)
}

// AppendRecord adds a row from a Record value.
func (t *Table) AppendRecord(r Record) { t.Append(r.UserID, r.ItemID, r.Clicks) }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.users) }

// Row returns row i.
func (t *Table) Row(i int) Record {
	return Record{UserID: t.users[i], ItemID: t.items[i], Clicks: t.clicks[i]}
}

// Each calls fn for every row in order. If fn returns false iteration stops.
func (t *Table) Each(fn func(Record) bool) {
	for i := range t.users {
		if !fn(Record{UserID: t.users[i], ItemID: t.items[i], Clicks: t.clicks[i]}) {
			return
		}
	}
}

// Clone returns a deep copy of the table. The copy shares nothing with the
// receiver, so it stays stable while the original keeps ingesting — the
// durability layer snapshots tables this way under the ingest lock.
func (t *Table) Clone() *Table {
	c := New(t.Len())
	c.users = append(c.users, t.users...)
	c.items = append(c.items, t.items...)
	c.clicks = append(c.clicks, t.clicks...)
	return c
}

// Aggregate merges duplicate (user, item) rows by summing clicks, returning
// a table sorted by (user, item). The receiver is unchanged. Click sums
// saturate at MaxUint32 rather than wrapping.
//
// An already-aggregated table (strictly increasing (user, item) rows) is
// returned as-is — no sort, no copy — so Aggregate is idempotent and free
// to call defensively: Aggregate(Aggregate(t)) returns the same *Table.
//
// Otherwise two stable counting passes, by item and then by user, order the
// rows as the graph build does, linear in the rows and the largest IDs.
// When those IDs sum past n·log₂n for n rows, as in a small delta, the rows
// are sorted as packed (user, item) keys instead: no ID-sized array. That
// rule sits at the measured crossover of the two (DESIGN.md §9).
func (t *Table) Aggregate() *Table {
	if t.aggregated() {
		return t
	}
	n := t.Len()
	out := &Table{users: make([]uint32, n), items: make([]uint32, n), clicks: make([]uint32, n)}
	uMax, vMax := slices.Max(t.users), slices.Max(t.items)
	if n > math.MaxInt32 || int(uMax)+int(vMax) > n*bits.Len(uint(n)) {
		rows := make([][2]uint64, n) // (user, item) key, clicks
		for i := range rows {
			rows[i] = [2]uint64{t.key(i), uint64(t.clicks[i])}
		}
		slices.SortFunc(rows, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
		for i, r := range rows {
			out.users[i], out.items[i], out.clicks[i] = uint32(r[0]>>32), uint32(r[0]), uint32(r[1])
		}
		return out.mergeRuns()
	}
	// perm lists the rows by item; next[id] is id's bucket cursor.
	perm := make([]int32, n)
	next := make([]int32, int(max(uMax, vMax))+2)
	cursors := func(ids []uint32) {
		clear(next)
		for _, id := range ids {
			next[id+1]++
		}
		for x := 1; x < len(next); x++ {
			next[x] += next[x-1]
		}
	}
	cursors(t.items)
	for i, v := range t.items {
		perm[next[v]] = int32(i)
		next[v]++
	}
	cursors(t.users)
	for _, i := range perm {
		u := t.users[i]
		out.users[next[u]], out.items[next[u]], out.clicks[next[u]] = u, t.items[i], t.clicks[i]
		next[u]++
	}
	return out.mergeRuns()
}

// mergeRuns sums each run of equal adjacent (user, item) rows into one row,
// saturating, in place: fed rows in (user, item) order, it leaves an
// aggregated table. It returns the receiver.
func (t *Table) mergeRuns() *Table {
	w := 0
	for i := range t.users {
		if w > 0 && t.key(w-1) == t.key(i) {
			t.clicks[w-1] = uint32(min(uint64(t.clicks[w-1])+uint64(t.clicks[i]), math.MaxUint32))
			continue
		}
		t.users[w], t.items[w], t.clicks[w] = t.users[i], t.items[i], t.clicks[i]
		w++
	}
	t.users, t.items, t.clicks = t.users[:w], t.items[:w], t.clicks[:w]
	return t
}

// key is row i's (user, item) pair as one integer ordered like the pair.
func (t *Table) key(i int) uint64 { return uint64(t.users[i])<<32 | uint64(t.items[i]) }

// aggregated reports whether the rows are strictly increasing by
// (user, item) — the invariant Aggregate's output satisfies: sorted with no
// duplicate pairs (zero-click rows can never be appended).
func (t *Table) aggregated() bool {
	for i := 1; i < len(t.users); i++ {
		if t.key(i) <= t.key(i-1) {
			return false
		}
	}
	return true
}

// Scale summarizes the table the way the paper's Table I does.
type Scale struct {
	Users       int    // distinct user IDs present
	Items       int    // distinct item IDs present
	Edges       int    // distinct (user, item) pairs
	TotalClicks uint64 // sum of the Click column
}

// Scale computes Table I-style scale numbers.
func (t *Table) Scale() Scale {
	users := map[uint32]struct{}{}
	items := map[uint32]struct{}{}
	pairs := map[uint64]struct{}{}
	var total uint64
	for i := range t.users {
		users[t.users[i]] = struct{}{}
		items[t.items[i]] = struct{}{}
		pairs[uint64(t.users[i])<<32|uint64(t.items[i])] = struct{}{}
		total += uint64(t.clicks[i])
	}
	return Scale{Users: len(users), Items: len(items), Edges: len(pairs), TotalClicks: total}
}

// String renders the scale like the paper's Table I row.
func (s Scale) String() string {
	return fmt.Sprintf("users=%d items=%d edges=%d total_clicks=%d",
		s.Users, s.Items, s.Edges, s.TotalClicks)
}

// ToGraph converts the table to a bipartite click graph. Duplicate rows are
// merged by summing clicks (the graph builder does this). This is the
// TableToBiGraph function of the paper's Algorithm 2. The build reads the
// table's own columns: nothing row-sized is allocated beyond the graph.
func (t *Table) ToGraph() *bipartite.Graph {
	return bipartite.FromColumns(t.users, t.items, t.clicks)
}
