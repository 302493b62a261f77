package bipartite

import (
	"cmp"
	"fmt"
	"slices"
)

// PatchGraph builds the graph a from-scratch Build over base's edges plus
// delta would produce, without re-running the build: untouched users keep
// their adjacency slices (safe to share — adjacency is immutable after
// build), and only the rows of users and the columns of items appearing in
// delta are rewritten, merging weights for existing edges and splicing new
// ones in sorted position. Cost is O(|delta| + Σ degree(touched vertices)),
// independent of the size of base.
//
// Weight merges saturate at MaxUint32, matching clicktable.Aggregate's
// semantics: because saturating addition composes (cap(a+b) equals
// cap(cap(a)+cap(b)) for uint64 partial sums), patching an aggregated base
// with an aggregated delta yields exactly the aggregate of the full
// history, which is what makes the result byte-identical to the rebuild
// path the streaming detector pins as its oracle.
//
// Preconditions, checked and enforced by panic (violations are programming
// errors, not data errors): base must be fully live — no vertex ever
// removed — and delta must be sorted by (U, V) with unique pairs and
// non-zero weights, i.e. aggregated. The returned graph is fully live and
// shares no mutable state with base; base itself is never modified. An
// empty delta returns base unchanged.
func PatchGraph(base *Graph, delta []Edge) *Graph {
	if base.removals != 0 || base.liveUsers != len(base.uAdj) || base.liveItems != len(base.vAdj) {
		panic("bipartite: PatchGraph requires a fully live base graph")
	}
	if len(delta) == 0 {
		return base
	}
	validateDelta(delta)

	numUsers, numItems := len(base.uAdj), len(base.vAdj)
	for _, e := range delta {
		if int(e.U) >= numUsers {
			numUsers = int(e.U) + 1
		}
		if int(e.V) >= numItems {
			numItems = int(e.V) + 1
		}
	}

	g := &Graph{
		uAdj:      growAdj(base.uAdj, numUsers),
		vAdj:      growAdj(base.vAdj, numItems),
		uAlive:    allTrue(numUsers),
		vAlive:    allTrue(numItems),
		uDeg:      growCopy(base.uDeg, numUsers),
		vDeg:      growCopy(base.vDeg, numItems),
		uStrength: growCopy(base.uStrength, numUsers),
		vStrength: growCopy(base.vStrength, numItems),
		liveUsers: numUsers,
		liveItems: numItems,
		liveEdges: base.liveEdges,
		liveClick: base.liveClick,
	}

	// User rows: delta is already sorted by (U, V), so each user's new arcs
	// are one contiguous run, itself sorted by item — merge it into the
	// user's existing sorted row.
	for i := 0; i < len(delta); {
		u := delta[i].U
		j := i + 1
		for j < len(delta) && delta[j].U == u {
			j++
		}
		row := mergeArcRuns(g.uAdj[u], delta[i:j], func(e Edge) Arc {
			return Arc{To: e.V, Weight: e.Weight}
		})
		var strength uint64
		for _, a := range row {
			strength += uint64(a.Weight)
		}
		g.liveEdges += len(row) - len(g.uAdj[u])
		g.liveClick += strength - g.uStrength[u]
		g.uAdj[u] = row
		g.uDeg[u] = int32(len(row))
		g.uStrength[u] = strength
		i = j
	}

	// Item columns: regroup the delta by (V, U) — its pairs are unique, so
	// the order is total — and rewrite each touched item's column the same
	// way.
	byItem := slices.Clone(delta)
	slices.SortFunc(byItem, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.V, b.V), cmp.Compare(a.U, b.U))
	})
	for i := 0; i < len(byItem); {
		v := byItem[i].V
		j := i + 1
		for j < len(byItem) && byItem[j].V == v {
			j++
		}
		col := mergeArcRuns(g.vAdj[v], byItem[i:j], func(e Edge) Arc {
			return Arc{To: e.U, Weight: e.Weight}
		})
		var strength uint64
		for _, a := range col {
			strength += uint64(a.Weight)
		}
		g.vAdj[v] = col
		g.vDeg[v] = int32(len(col))
		g.vStrength[v] = strength
		i = j
	}
	return g
}

// validateDelta panics unless delta is aggregated: sorted by (U, V),
// unique pairs, non-zero weights.
func validateDelta(delta []Edge) {
	for i, e := range delta {
		if e.Weight == 0 {
			panic(fmt.Sprintf("bipartite: PatchGraph delta edge %d has zero weight", i))
		}
		if i > 0 {
			p := delta[i-1]
			if e.U < p.U || (e.U == p.U && e.V <= p.V) {
				panic(fmt.Sprintf("bipartite: PatchGraph delta not sorted/unique at edge %d", i))
			}
		}
	}
}

// mergeArcRuns merges a sorted arc slice with a sorted run of delta edges
// into a fresh sorted slice, saturating weights where keys collide. arcOf
// projects a delta edge onto the arc being merged (item for user rows,
// user for item columns).
func mergeArcRuns(old []Arc, run []Edge, arcOf func(Edge) Arc) []Arc {
	out := make([]Arc, 0, len(old)+len(run))
	i, j := 0, 0
	for i < len(old) && j < len(run) {
		a, b := old[i], arcOf(run[j])
		switch {
		case a.To < b.To:
			out = append(out, a)
			i++
		case a.To > b.To:
			out = append(out, b)
			j++
		default:
			out = append(out, Arc{To: a.To, Weight: satAdd32(a.Weight, b.Weight)})
			i++
			j++
		}
	}
	out = append(out, old[i:]...)
	for ; j < len(run); j++ {
		out = append(out, arcOf(run[j]))
	}
	return out
}

// satAdd32 adds two click weights, saturating at MaxUint32 — the same cap
// clicktable.Aggregate applies when it merges duplicate rows.
func satAdd32(a, b uint32) uint32 {
	s := uint64(a) + uint64(b)
	if s > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(s)
}

func growAdj(adj [][]Arc, n int) [][]Arc {
	out := make([][]Arc, n)
	copy(out, adj)
	return out
}

func allTrue(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

func growCopy[T int32 | uint64](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}
