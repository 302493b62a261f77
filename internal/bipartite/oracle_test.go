package bipartite

import (
	"fmt"
	"math/rand"
	"slices"
)

// This file holds what only tests use: edge-list construction,
// materialized neighbor lists and live edge lists, the one random graph
// generator and the one graph comparator.

// AddEdges records a batch of edges.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.Add(e.U, e.V, e.Weight)
	}
}

// FromEdges is a convenience constructor building a graph directly from an
// edge list. Vertex counts are inferred from the maximum IDs present.
func FromEdges(edges []Edge) *Graph {
	b := NewBuilder(0, 0)
	b.AddEdges(edges)
	return b.Build()
}

// UserNeighbors returns the live item neighbors of u as a fresh slice,
// sorted by item ID.
func (g *Graph) UserNeighbors(u NodeID) []Arc {
	var out []Arc
	g.EachUserNeighbor(u, func(v NodeID, w uint32) bool {
		out = append(out, Arc{To: v, Weight: w})
		return true
	})
	return out
}

// ItemNeighbors returns the live user neighbors of v as a fresh slice,
// sorted by user ID.
func (g *Graph) ItemNeighbors(v NodeID) []Arc {
	var out []Arc
	g.EachItemNeighbor(v, func(u NodeID, w uint32) bool {
		out = append(out, Arc{To: u, Weight: w})
		return true
	})
	return out
}

// Edges returns all live edges in (user, item) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.liveEdges)
	g.EachLiveUser(func(u NodeID) bool {
		g.EachUserNeighbor(u, func(v NodeID, w uint32) bool {
			out = append(out, Edge{U: u, V: v, Weight: w})
			return true
		})
		return true
	})
	return out
}

// randomGraph draws a graph of 1…maxUsers × 1…maxItems vertices from seed
// and n click records over them. Records repeat pairs, so duplicate merging
// runs; they are returned with the graph for tests that build them another
// way.
func randomGraph(seed int64, maxUsers, maxItems, n int) (*Graph, []Edge) {
	rng := rand.New(rand.NewSource(seed))
	nu, ni := 1+rng.Intn(maxUsers), 1+rng.Intn(maxItems)
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{U: NodeID(rng.Intn(nu)), V: NodeID(rng.Intn(ni)), Weight: uint32(1 + rng.Intn(9))}
	}
	b := NewBuilder(nu, ni)
	b.AddEdges(edges)
	return b.Build(), edges
}

// graphDiff describes the first difference between two graphs in what a
// caller can observe — sizes, live totals, removal epoch, and each vertex's
// liveness, degree, strength and live arcs in order, weights included — or
// returns "".
func graphDiff(got, want *Graph) string {
	// String prints the sizes and the live totals.
	if got.String() != want.String() || got.RemovalEpoch() != want.RemovalEpoch() {
		return fmt.Sprintf("totals %v epoch %d, want %v epoch %d", got, got.RemovalEpoch(), want, want.RemovalEpoch())
	}
	for u := range NodeID(want.NumUsers()) {
		if got.UserAlive(u) != want.UserAlive(u) || got.UserDegree(u) != want.UserDegree(u) ||
			got.UserStrength(u) != want.UserStrength(u) || !slices.Equal(got.UserNeighbors(u), want.UserNeighbors(u)) {
			return fmt.Sprintf("user %d diverges: arcs %v, want %v", u, got.UserNeighbors(u), want.UserNeighbors(u))
		}
	}
	for v := range NodeID(want.NumItems()) {
		if got.ItemAlive(v) != want.ItemAlive(v) || got.ItemDegree(v) != want.ItemDegree(v) ||
			got.ItemStrength(v) != want.ItemStrength(v) || !slices.Equal(got.ItemNeighbors(v), want.ItemNeighbors(v)) {
			return fmt.Sprintf("item %d diverges: arcs %v, want %v", v, got.ItemNeighbors(v), want.ItemNeighbors(v))
		}
	}
	return ""
}
