package bipartite

import (
	"cmp"
	"fmt"
	"slices"
)

// Builder accumulates click records and produces an immutable-adjacency
// Graph. Duplicate (user, item) records are merged by summing their weights,
// mirroring how a click log aggregates into the TaoBao_UI_Clicks table.
//
// The zero value is not usable; construct with NewBuilder.
type Builder struct {
	numUsers int
	numItems int
	users    []NodeID // the records, one column each
	items    []NodeID
	weights  []uint32
}

// NewBuilder returns a Builder for a graph with at least the given number of
// user and item vertices. Adding an edge with a larger ID grows the graph.
func NewBuilder(numUsers, numItems int) *Builder {
	return &Builder{numUsers: numUsers, numItems: numItems}
}

// Add records that user u clicked item v clicks times. Zero-click records
// are ignored. Multiple Add calls for the same pair accumulate.
func (b *Builder) Add(u, v NodeID, clicks uint32) {
	if clicks == 0 {
		return
	}
	b.numUsers = max(b.numUsers, int(u)+1)
	b.numItems = max(b.numItems, int(v)+1)
	b.users = append(b.users, u)
	b.items = append(b.items, v)
	b.weights = append(b.weights, clicks)
}

// AddEdges records a batch of edges.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.Add(e.U, e.V, e.Weight)
	}
}

// Build constructs the Graph. The Builder may be reused afterwards; the
// built graph does not alias the builder's storage, and the recorded edges
// are left in the order they were added.
func (b *Builder) Build() *Graph {
	return build(b.numUsers, b.numItems, b.users, b.items, b.weights)
}

// FromColumns builds the graph of the records (users[i], items[i],
// weights[i]) from three equal-length columns it only reads, with no staging
// copy. Zero-weight records are skipped as Add skips them: they size nothing.
func FromColumns(users, items []NodeID, weights []uint32) *Graph {
	numUsers, numItems := 0, 0
	for i, w := range weights {
		if w != 0 {
			numUsers = max(numUsers, int(users[i])+1)
			numItems = max(numItems, int(items[i])+1)
		}
	}
	return build(numUsers, numItems, users, items, weights)
}

// build is the counting build behind Build and FromColumns, linear in the
// records but for the per-row sorts: count records per user, scatter them
// into one pre-sized arena, sort each (short) row by item and merge its
// duplicates in place, then fill the item side with one scatter in user
// order — which leaves every item column ascending by user with no sort at
// all. It runs on one goroutine: every pass is a bandwidth-bound sweep over
// arrays the others also touch, and the chunk-sort/merge/atomic-scatter
// build it replaced was slower at every worker count (DESIGN.md §9).
func build(numUsers, numItems int, users, items []NodeID, weights []uint32) *Graph {
	g := NewGraph(numUsers, numItems)

	// User side: rows[start[u]:start[u+1]] receives u's records in input
	// order; uDeg doubles as the scatter cursor and ends up as the raw
	// (pre-merge) row length.
	start := make([]int, numUsers+1)
	for i, u := range users {
		if weights[i] != 0 {
			start[u+1]++
		}
	}
	for u := 0; u < numUsers; u++ {
		start[u+1] += start[u]
	}
	rows := make([]Arc, start[numUsers])
	for i, u := range users {
		if weights[i] != 0 {
			rows[start[u]+int(g.uDeg[u])] = Arc{To: items[i], Weight: weights[i]}
			g.uDeg[u]++
		}
	}

	// Sort and merge each row, sliding it left over the slots earlier rows'
	// duplicates freed (w never passes the row's own start, so the copy
	// only ever moves data toward the front).
	w := 0
	for u := 0; u < numUsers; u++ {
		row := rows[start[u]:start[u+1]]
		slices.SortFunc(row, compareArcs)
		lo := w
		for _, a := range row {
			if w > lo && rows[w-1].To == a.To {
				rows[w-1].Weight = satAdd32(rows[w-1].Weight, a.Weight)
				continue
			}
			rows[w] = a
			w++
		}
		g.uDeg[u] = int32(w - lo)
	}
	if w < len(rows) {
		// Duplicates were merged: do not pin the unused tail for the
		// graph's lifetime.
		rows = slices.Clone(rows[:w])
	}

	// Cut the user rows and count the item side.
	w = 0
	for u := 0; u < numUsers; u++ {
		row := rows[w : w+int(g.uDeg[u]) : w+int(g.uDeg[u])]
		w += len(row)
		g.uAdj[u] = row
		for _, a := range row {
			g.uStrength[u] += uint64(a.Weight)
			g.vStrength[a.To] += uint64(a.Weight)
			g.vDeg[a.To]++
		}
		g.liveClick += g.uStrength[u]
	}
	g.liveEdges = len(rows)

	// Item side: users are visited in ascending order, so each column
	// fills ascending by user.
	cols := make([]Arc, len(rows))
	w = 0
	for v := 0; v < numItems; v++ {
		g.vAdj[v] = cols[w : w : w+int(g.vDeg[v])]
		w += int(g.vDeg[v])
	}
	for u, row := range g.uAdj {
		for _, a := range row {
			g.vAdj[a.To] = append(g.vAdj[a.To], Arc{To: NodeID(u), Weight: a.Weight})
		}
	}
	return g
}

func compareArcs(a, b Arc) int { return cmp.Compare(a.To, b.To) }

// FromEdges is a convenience constructor building a graph directly from an
// edge list. Vertex counts are inferred from the maximum IDs present.
func FromEdges(edges []Edge) *Graph {
	b := NewBuilder(0, 0)
	b.AddEdges(edges)
	return b.Build()
}

// InducedSubgraph returns the subgraph of g induced by the given user and
// item sets, in the original ID space (vertices outside the sets are dead in
// the result). Unknown IDs are rejected with an error; duplicates and dead
// IDs are allowed, and a dead vertex stays dead.
//
// It is the one subgraph constructor, with two legs that leave identical
// state — liveness, live degrees and strengths, LiveEdges, LiveClicks, and
// a removal epoch one above g's per live vertex dropped — and take the
// cheaper walk: building fresh liveness state costs the kept users' arcs,
// cloning g's and removing the rest costs the dropped vertices' arcs. Both
// live-degree sums come from the kept sets alone (each side's degrees sum to
// LiveEdges), so the choice costs O(kept). A seed ball that keeps a fifth of
// the users builds; a repartition that keeps nearly everything removes.
func InducedSubgraph(g *Graph, users, items []NodeID) (*Graph, error) {
	for _, u := range users {
		if int(u) >= g.NumUsers() {
			return nil, fmt.Errorf("bipartite: induced subgraph: user %d out of range", u)
		}
	}
	for _, v := range items {
		if int(v) >= g.NumItems() {
			return nil, fmt.Errorf("bipartite: induced subgraph: item %d out of range", v)
		}
	}
	// keepU/keepV mark the kept live vertices once each: the build leg's
	// liveness, the remove leg's membership test.
	keepU := make([]bool, g.NumUsers())
	keepV := make([]bool, g.NumItems())
	var liveU, liveV, keptUserDeg, keptItemDeg int
	for _, u := range users {
		if g.uAlive[u] && !keepU[u] {
			keepU[u] = true
			liveU++
			keptUserDeg += int(g.uDeg[u])
		}
	}
	for _, v := range items {
		if g.vAlive[v] && !keepV[v] {
			keepV[v] = true
			liveV++
			keptItemDeg += int(g.vDeg[v])
		}
	}
	if dropDeg := 2*g.liveEdges - keptUserDeg - keptItemDeg; keptUserDeg > dropDeg {
		return removeOutside(g, keepU, keepV), nil
	}

	sub := &Graph{
		uAdj:      g.uAdj,
		vAdj:      g.vAdj,
		uAlive:    keepU,
		vAlive:    keepV,
		uDeg:      make([]int32, g.NumUsers()),
		vDeg:      make([]int32, g.NumItems()),
		uStrength: make([]uint64, g.NumUsers()),
		vStrength: make([]uint64, g.NumItems()),
		liveUsers: liveU,
		liveItems: liveV,
		removals:  g.removals + uint64(g.liveUsers-liveU+g.liveItems-liveV),
	}
	for u, kept := range keepU {
		if !kept {
			continue
		}
		for _, a := range g.uAdj[u] {
			if keepV[a.To] {
				sub.uDeg[u]++
				sub.uStrength[u] += uint64(a.Weight)
				sub.vDeg[a.To]++
				sub.vStrength[a.To] += uint64(a.Weight)
				sub.liveEdges++
				sub.liveClick += uint64(a.Weight)
			}
		}
	}
	return sub, nil
}

// removeOutside is InducedSubgraph's remove leg: g cloned, then every live
// vertex outside keepU/keepV removed.
func removeOutside(g *Graph, keepU, keepV []bool) *Graph {
	sub := g.Clone()
	for u, alive := range sub.uAlive {
		if alive && !keepU[u] {
			sub.RemoveUser(NodeID(u))
		}
	}
	for v, alive := range sub.vAlive {
		if alive && !keepV[v] {
			sub.RemoveItem(NodeID(v))
		}
	}
	return sub
}
