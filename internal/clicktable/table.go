// Package clicktable implements the user-item click table that the paper
// calls TaoBao_UI_Clicks: a three-column relation (User_ID, Item_ID, Click)
// holding aggregated click counts, together with the scale and statistics
// computations of the paper's Tables I and II and the conversion to the
// bipartite click graph (the TableToBiGraph step of Algorithm 2).
package clicktable

import (
	"fmt"
	"sort"

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
func (t *Table) Aggregate() *Table {
	if t.aggregated() {
		return t
	}
	idx := make([]int, t.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t.key(idx[a]) < t.key(idx[b]) })
	out := New(t.Len())
	for _, i := range idx {
		out.addRow(t, i)
	}
	return out
}

// addRow appends row i of t, summing its clicks into the last row instead
// (saturating) when that row holds the same (user, item) pair: fed rows in
// (user, item) order, it builds an aggregated table.
func (t *Table) addRow(from *Table, i int) {
	if n := t.Len(); n > 0 && t.key(n-1) == from.key(i) {
		t.clicks[n-1] = uint32(min(uint64(t.clicks[n-1])+uint64(from.clicks[i]), 1<<32-1))
		return
	}
	t.Append(from.users[i], from.items[i], from.clicks[i])
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
