package bipartite

import (
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

// Build constructs the Graph. The Builder may be reused afterwards; the
// built graph does not alias the builder's storage, and the recorded edges
// are left in the order they were added.
func (b *Builder) Build() *Graph {
	return build(b.numUsers, b.numItems, b.users, b.items, b.weights)
}

// FromColumns builds the graph of the records (users[i], items[i],
// weights[i]) from three equal-length columns it only reads, with no staging
// copy. Zero-weight records are skipped as Add skips them: they size nothing.
// Columns of unequal length panic.
func FromColumns(users, items []NodeID, weights []uint32) *Graph {
	if len(users) != len(weights) || len(items) != len(weights) {
		panic(fmt.Sprintf("bipartite: FromColumns: columns of unequal length: %d users, %d items, %d weights",
			len(users), len(items), len(weights)))
	}
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
// records with no comparison sort. Records ordered by (user, item), as an
// aggregated table hands them over, are copied into one pre-sized arena;
// any other order is bucketed by item, then dealt out to the user rows in
// ascending item order. Either way each row ascends by item with its
// duplicates adjacent for one in-place merge, and one scatter in user order
// fills every item column ascending by user. It runs on one goroutine: the
// chunk-sort/merge/atomic-scatter build it replaced was slower at every
// worker count (DESIGN.md §9).
func build(numUsers, numItems int, users, items []NodeID, weights []uint32) *Graph {
	g := NewGraph(numUsers, numItems)

	// Count records per user, and see whether they come ordered.
	start := make([]int, numUsers+1)
	ordered, prev := true, uint64(0)
	for i, u := range users {
		if weights[i] != 0 {
			start[u+1]++
			k := uint64(u)<<32 | uint64(items[i])
			ordered, prev = ordered && k >= prev, k
		}
	}
	for u := 0; u < numUsers; u++ {
		start[u+1] += start[u]
	}
	rows := make([]Arc, start[numUsers])
	var byItem []Arc
	if ordered {
		w := 0
		for i, v := range items {
			if weights[i] != 0 {
				rows[w] = Arc{To: v, Weight: weights[i]}
				w++
			}
		}
	} else {
		// Bucket the records by item, in input order; vEnd[v] ends as
		// the end of v's bucket, which is where v+1's begins.
		vEnd := make([]int, numItems+1)
		for i, v := range items {
			if weights[i] != 0 {
				vEnd[v+1]++
			}
		}
		for v := 0; v < numItems; v++ {
			vEnd[v+1] += vEnd[v]
		}
		byItem = make([]Arc, len(rows))
		for i, v := range items {
			if weights[i] != 0 {
				byItem[vEnd[v]] = Arc{To: users[i], Weight: weights[i]}
				vEnd[v]++
			}
		}
		// Deal the buckets out to the rows, items ascending; uDeg is the
		// row cursor.
		lo := 0
		for v := 0; v < numItems; v++ {
			for _, a := range byItem[lo:vEnd[v]] {
				rows[start[a.To]+int(g.uDeg[a.To])] = Arc{To: NodeID(v), Weight: a.Weight}
				g.uDeg[a.To]++
			}
			lo = vEnd[v]
		}
	}

	// Merge each row's duplicates, sliding it left over the slots earlier
	// rows' duplicates freed (w never passes the row's own start, so the
	// copy only ever moves data toward the front).
	w := 0
	for u := 0; u < numUsers; u++ {
		lo := w
		for _, a := range rows[start[u]:start[u+1]] {
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
		// Duplicates were merged: neither arena pins the unused tail for
		// the graph's lifetime.
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
	// fills ascending by user. The item buckets, read by now, are reused
	// when they are exactly that long.
	cols := byItem
	if len(cols) != len(rows) {
		cols = make([]Arc, len(rows))
	}
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
// LiveEdges), so the choice costs O(kept). The seed ball around a few dirty
// users builds; the ball around a day-sized bulk delta reaches most of the
// graph and removes. The benchmark's durable_bulk workload takes both legs,
// most of its balls the remove leg. Either leg's result holds leased
// liveness storage, which Release hands back.
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
	// liveness, the remove leg's membership test. They are the leased
	// liveness flags of the graph the build leg returns; the remove leg
	// hands them back once it is done with them.
	sub := &Graph{uAdj: g.uAdj, vAdj: g.vAdj}
	leaseArena(&livenessArenas, sub, g.NumUsers(), g.NumItems())
	keepU, keepV := sub.uAlive, sub.vAlive
	clear(keepU)
	clear(keepV)
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
		out := removeOutside(g, keepU, keepV)
		sub.Release()
		return out, nil
	}

	clear(sub.uDeg)
	clear(sub.vDeg)
	clear(sub.uStrength)
	clear(sub.vStrength)
	sub.liveUsers, sub.liveItems = liveU, liveV
	sub.removals = g.removals + uint64(g.liveUsers-liveU+g.liveItems-liveV)
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
