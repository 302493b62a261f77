// Package bipartite implements a weighted bipartite graph tailored to
// user-item click data. It is the substrate shared by every detection
// algorithm in this repository.
//
// The two vertex sides are called "users" (left, U) and "items" (right, V).
// An edge (u, v, w) records that user u clicked item v exactly w times.
// The representation is an adjacency-list structure with support for
// cheap logical deletion of vertices, which the pruning-style algorithms
// (RICD core pruning, FRAUDAR peeling, ...) rely on heavily.
package bipartite

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a vertex within one side of the graph. User IDs and
// item IDs are separate namespaces: user 3 and item 3 are distinct vertices.
type NodeID = uint32

// Side distinguishes the two vertex classes of the bipartite graph.
type Side uint8

// The two sides of the bipartite graph.
const (
	UserSide Side = iota
	ItemSide
)

// String returns "user" or "item".
func (s Side) String() string {
	if s == UserSide {
		return "user"
	}
	return "item"
}

// Arc is one directed half of an undirected weighted edge: the neighbor on
// the opposite side and the click weight.
type Arc struct {
	To     NodeID
	Weight uint32
}

// Edge is an undirected weighted edge between user U and item V.
type Edge struct {
	U, V   NodeID
	Weight uint32
}

// Graph is a weighted bipartite graph with logical vertex deletion.
//
// Vertices are dense integers 0..NumUsers-1 and 0..NumItems-1. Deleting a
// vertex marks it dead and updates the live degrees of its neighbors in
// O(degree); adjacency slices are never rewritten, so iteration must skip
// dead endpoints (the Neighbors / EachNeighbor helpers do this).
type Graph struct {
	uAdj [][]Arc // uAdj[u] sorted by To
	vAdj [][]Arc // vAdj[v] sorted by To

	uAlive []bool
	vAlive []bool

	uDeg []int32 // live degree of each user
	vDeg []int32 // live degree of each item

	uStrength []uint64 // live click weight incident to each user
	vStrength []uint64 // live click weight incident to each item

	liveUsers int
	liveItems int
	liveEdges int
	liveClick uint64

	removals uint64 // epoch counter: total vertex removals applied

	// lease is the pooled storage the graph was built in (Clone,
	// InducedSubgraph's build leg, CompactComponent); nil when the graph
	// owns its storage. Release hands it back.
	lease *arena
}

// arena is the pooled storage of a graph a detection builds only for
// itself: the liveness arrays and, for a compact graph, the row headers and
// both arc slabs. livenessArenas lends the first kind (Clone,
// InducedSubgraph), compactArenas the second (CompactComponent); each grows
// its arenas to the largest graph met. A lease re-establishes every array
// it hands out — copies, clears or fills it — so nothing an earlier graph
// left in an arena is read.
type arena struct {
	pool                 *sync.Pool
	uAlive, vAlive       []bool
	uDeg, vDeg           []int32
	uStrength, vStrength []uint64
	uAdj, vAdj           [][]Arc
	rows, cols           []Arc
}

var (
	livenessArenas = sync.Pool{New: func() any { return new(arena) }}
	compactArenas  = sync.Pool{New: func() any { return new(arena) }}
)

// leaseArena takes an arena from pool and points g's liveness arrays into
// it, sized numUsers × numItems and holding whatever the arena last held.
func leaseArena(pool *sync.Pool, g *Graph, numUsers, numItems int) *arena {
	a := pool.Get().(*arena)
	a.pool = pool
	a.uAlive, a.vAlive = grow(a.uAlive, numUsers), grow(a.vAlive, numItems)
	a.uDeg, a.vDeg = grow(a.uDeg, numUsers), grow(a.vDeg, numItems)
	a.uStrength, a.vStrength = grow(a.uStrength, numUsers), grow(a.vStrength, numItems)
	g.uAlive, g.vAlive = a.uAlive, a.vAlive
	g.uDeg, g.vDeg = a.uDeg, a.vDeg
	g.uStrength, g.vStrength = a.uStrength, a.vStrength
	g.lease = a
	return a
}

// grow returns buf with length n, reusing its array when it is large
// enough; reused elements keep whatever they held.
func grow[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// Release hands back the pooled storage g was built in and empties g: it
// reads as a graph with no vertices, and an accessor given one of its former
// vertices panics instead of reading the graph the storage serves next.
// Nothing may read that storage afterwards — no UserArcs/ItemArcs slice of
// g, and no Clone of a compact g, which shares its rows. Release is a no-op
// on a graph that holds no lease (from NewGraph, a Builder, ToGraph or
// PatchGraph) and on a second call.
func (g *Graph) Release() {
	a := g.lease
	if a == nil {
		return
	}
	*g = Graph{}
	a.pool.Put(a)
}

// NewGraph returns an empty graph with capacity for the given number of
// users and items and no edges. Use a Builder to construct a populated graph.
func NewGraph(numUsers, numItems int) *Graph {
	g := &Graph{
		uAdj:      make([][]Arc, numUsers),
		vAdj:      make([][]Arc, numItems),
		uAlive:    make([]bool, numUsers),
		vAlive:    make([]bool, numItems),
		uDeg:      make([]int32, numUsers),
		vDeg:      make([]int32, numItems),
		uStrength: make([]uint64, numUsers),
		vStrength: make([]uint64, numItems),
		liveUsers: numUsers,
		liveItems: numItems,
	}
	for i := range g.uAlive {
		g.uAlive[i] = true
	}
	for i := range g.vAlive {
		g.vAlive[i] = true
	}
	return g
}

// NumUsers returns the total number of user vertices ever allocated,
// including dead ones.
func (g *Graph) NumUsers() int { return len(g.uAdj) }

// NumItems returns the total number of item vertices ever allocated,
// including dead ones.
func (g *Graph) NumItems() int { return len(g.vAdj) }

// LiveUsers returns the number of user vertices not deleted.
func (g *Graph) LiveUsers() int { return g.liveUsers }

// LiveItems returns the number of item vertices not deleted.
func (g *Graph) LiveItems() int { return g.liveItems }

// LiveEdges returns the number of edges whose both endpoints are alive.
func (g *Graph) LiveEdges() int { return g.liveEdges }

// LiveClicks returns the total click weight over live edges.
func (g *Graph) LiveClicks() uint64 { return g.liveClick }

// UserAlive reports whether user u exists and has not been deleted.
func (g *Graph) UserAlive(u NodeID) bool {
	return int(u) < len(g.uAlive) && g.uAlive[u]
}

// ItemAlive reports whether item v exists and has not been deleted.
func (g *Graph) ItemAlive(v NodeID) bool {
	return int(v) < len(g.vAlive) && g.vAlive[v]
}

// UserDegree returns the live degree (number of live item neighbors) of u.
func (g *Graph) UserDegree(u NodeID) int { return int(g.uDeg[u]) }

// ItemDegree returns the live degree (number of live user neighbors) of v.
func (g *Graph) ItemDegree(v NodeID) int { return int(g.vDeg[v]) }

// UserStrength returns the total live click weight incident to user u.
func (g *Graph) UserStrength(u NodeID) uint64 { return g.uStrength[u] }

// ItemStrength returns the total live click weight incident to item v,
// i.e. the item's total click count from live users.
func (g *Graph) ItemStrength(v NodeID) uint64 { return g.vStrength[v] }

// Weight returns the click weight of edge (u, v), or 0 if the edge does not
// exist or either endpoint is dead.
func (g *Graph) Weight(u, v NodeID) uint32 {
	if !g.UserAlive(u) || !g.ItemAlive(v) {
		return 0
	}
	adj := g.uAdj[u]
	i := sort.Search(len(adj), func(i int) bool { return adj[i].To >= v })
	if i < len(adj) && adj[i].To == v {
		return adj[i].Weight
	}
	return 0
}

// HasEdge reports whether the live edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool { return g.Weight(u, v) > 0 }

// EachUserNeighbor calls fn for every live item neighbor of user u with the
// edge weight. Iteration is in increasing item-ID order. If fn returns false
// the iteration stops early.
func (g *Graph) EachUserNeighbor(u NodeID, fn func(v NodeID, w uint32) bool) {
	if !g.UserAlive(u) {
		return
	}
	for _, a := range g.uAdj[u] {
		if g.vAlive[a.To] {
			if !fn(a.To, a.Weight) {
				return
			}
		}
	}
}

// EachItemNeighbor calls fn for every live user neighbor of item v with the
// edge weight. Iteration is in increasing user-ID order. If fn returns false
// the iteration stops early.
func (g *Graph) EachItemNeighbor(v NodeID, fn func(u NodeID, w uint32) bool) {
	if !g.ItemAlive(v) {
		return
	}
	for _, a := range g.vAdj[v] {
		if g.uAlive[a.To] {
			if !fn(a.To, a.Weight) {
				return
			}
		}
	}
}

// UserArcs returns user u's whole adjacency row, ascending by item ID, dead
// items included: the caller filters with ItemAlive. The slice is the
// graph's own storage and must not be modified. It exists for inner loops
// that cannot afford EachUserNeighbor's call per arc.
func (g *Graph) UserArcs(u NodeID) []Arc { return g.uAdj[u] }

// ItemArcs is the item-side dual of UserArcs: item v's whole column,
// ascending by user ID, dead users included, read-only.
func (g *Graph) ItemArcs(v NodeID) []Arc { return g.vAdj[v] }

// RemovalEpoch returns the total number of vertex removals ever applied to
// this graph (no-op removals of already-dead vertices do not count). Clones
// inherit the epoch of their source, so two graphs that underwent the same
// removals — e.g. under sharded pruning and under the monolithic reference
// it is tested against — report the same epoch.
func (g *Graph) RemovalEpoch() uint64 { return g.removals }

// RemoveUser deletes user u and its incident edges. Removing an already-dead
// user is a no-op.
func (g *Graph) RemoveUser(u NodeID) {
	if !g.UserAlive(u) {
		return
	}
	g.removals++
	g.uAlive[u] = false
	g.liveUsers--
	for _, a := range g.uAdj[u] {
		if g.vAlive[a.To] {
			g.vDeg[a.To]--
			g.vStrength[a.To] -= uint64(a.Weight)
			g.liveEdges--
			g.liveClick -= uint64(a.Weight)
		}
	}
	g.uDeg[u] = 0
	g.uStrength[u] = 0
}

// RemoveItem deletes item v and its incident edges. Removing an already-dead
// item is a no-op.
func (g *Graph) RemoveItem(v NodeID) {
	if !g.ItemAlive(v) {
		return
	}
	g.removals++
	g.vAlive[v] = false
	g.liveItems--
	for _, a := range g.vAdj[v] {
		if g.uAlive[a.To] {
			g.uDeg[a.To]--
			g.uStrength[a.To] -= uint64(a.Weight)
			g.liveEdges--
			g.liveClick -= uint64(a.Weight)
		}
	}
	g.vDeg[v] = 0
	g.vStrength[v] = 0
}

// EachLiveUser calls fn for every live user in increasing ID order.
func (g *Graph) EachLiveUser(fn func(u NodeID) bool) {
	for u := range g.uAlive {
		if g.uAlive[u] {
			if !fn(NodeID(u)) {
				return
			}
		}
	}
}

// EachLiveItem calls fn for every live item in increasing ID order.
func (g *Graph) EachLiveItem(fn func(v NodeID) bool) {
	for v := range g.vAlive {
		if g.vAlive[v] {
			if !fn(NodeID(v)) {
				return
			}
		}
	}
}

// LiveUserIDs returns the IDs of all live users in increasing order.
func (g *Graph) LiveUserIDs() []NodeID {
	out := make([]NodeID, 0, g.liveUsers)
	g.EachLiveUser(func(u NodeID) bool { out = append(out, u); return true })
	return out
}

// LiveItemIDs returns the IDs of all live items in increasing order.
func (g *Graph) LiveItemIDs() []NodeID {
	out := make([]NodeID, 0, g.liveItems)
	g.EachLiveItem(func(v NodeID) bool { out = append(out, v); return true })
	return out
}

// Clone returns a deep copy of the graph, preserving deletions.
// Adjacency slices are shared because they are immutable after build;
// only the mutable liveness state is copied, into leased storage that
// Release hands back. The removal epoch carries over.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		removals:  g.removals,
		uAdj:      g.uAdj,
		vAdj:      g.vAdj,
		liveUsers: g.liveUsers,
		liveItems: g.liveItems,
		liveEdges: g.liveEdges,
		liveClick: g.liveClick,
	}
	leaseArena(&livenessArenas, c, len(g.uAlive), len(g.vAlive))
	copy(c.uAlive, g.uAlive)
	copy(c.vAlive, g.vAlive)
	copy(c.uDeg, g.uDeg)
	copy(c.vDeg, g.vDeg)
	copy(c.uStrength, g.uStrength)
	copy(c.vStrength, g.vStrength)
	return c
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("bipartite.Graph{users=%d/%d items=%d/%d edges=%d clicks=%d}",
		g.liveUsers, len(g.uAdj), g.liveItems, len(g.vAdj), g.liveEdges, g.liveClick)
}
