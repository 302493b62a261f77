package bipartite

import "sort"

// This file holds the graph accessors and set operations that only tests
// use: edge-list construction, materialized neighbor lists and live edge
// lists, and the sorted-adjacency intersection counts and two-hop
// neighborhoods the square-pruning tests check against.

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

// CommonUserNeighbors returns the number of live items adjacent to both
// users a and b (|a.adj ∩ b.adj| in the paper's notation).
func CommonUserNeighbors(g *Graph, a, b NodeID) int {
	if !g.UserAlive(a) || !g.UserAlive(b) {
		return 0
	}
	return countCommon(g.uAdj[a], g.uAdj[b], g.vAlive)
}

// CommonItemNeighbors returns the number of live users adjacent to both
// items a and b.
func CommonItemNeighbors(g *Graph, a, b NodeID) int {
	if !g.ItemAlive(a) || !g.ItemAlive(b) {
		return 0
	}
	return countCommon(g.vAdj[a], g.vAdj[b], g.uAlive)
}

// CommonUserNeighborsAtLeast reports whether users a and b share at least k
// live item neighbors, short-circuiting once k is reached.
func CommonUserNeighborsAtLeast(g *Graph, a, b NodeID, k int) bool {
	if k <= 0 {
		return true
	}
	if !g.UserAlive(a) || !g.UserAlive(b) {
		return false
	}
	return countCommonAtLeast(g.uAdj[a], g.uAdj[b], g.vAlive, k)
}

// CommonItemNeighborsAtLeast reports whether items a and b share at least k
// live user neighbors, short-circuiting once k is reached.
func CommonItemNeighborsAtLeast(g *Graph, a, b NodeID, k int) bool {
	if k <= 0 {
		return true
	}
	if !g.ItemAlive(a) || !g.ItemAlive(b) {
		return false
	}
	return countCommonAtLeast(g.vAdj[a], g.vAdj[b], g.uAlive, k)
}

func countCommon(a, b []Arc, alive []bool) int {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].To < b[j].To:
			i++
		case a[i].To > b[j].To:
			j++
		default:
			if alive[a[i].To] {
				n++
			}
			i++
			j++
		}
	}
	return n
}

func countCommonAtLeast(a, b []Arc, alive []bool, k int) bool {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Not enough remaining entries to ever reach k: bail out.
		rem := len(a) - i
		if len(b)-j < rem {
			rem = len(b) - j
		}
		if n+rem < k {
			return false
		}
		switch {
		case a[i].To < b[j].To:
			i++
		case a[i].To > b[j].To:
			j++
		default:
			if alive[a[i].To] {
				n++
				if n >= k {
					return true
				}
			}
			i++
			j++
		}
	}
	return n >= k
}

// TwoHopUsers returns the live users reachable from user u through one live
// item, excluding u itself. The result is sorted and duplicate-free. This is
// the candidate set the square-pruning stage must test for (α,k)-neighbor
// relations: any user sharing zero items trivially fails the test.
func TwoHopUsers(g *Graph, u NodeID) []NodeID {
	if !g.UserAlive(u) {
		return nil
	}
	seen := map[NodeID]struct{}{}
	g.EachUserNeighbor(u, func(v NodeID, _ uint32) bool {
		g.EachItemNeighbor(v, func(u2 NodeID, _ uint32) bool {
			if u2 != u {
				seen[u2] = struct{}{}
			}
			return true
		})
		return true
	})
	return sortedKeys(seen)
}

// TwoHopItems returns the live items reachable from item v through one live
// user, excluding v itself. The result is sorted and duplicate-free.
func TwoHopItems(g *Graph, v NodeID) []NodeID {
	if !g.ItemAlive(v) {
		return nil
	}
	seen := map[NodeID]struct{}{}
	g.EachItemNeighbor(v, func(u NodeID, _ uint32) bool {
		g.EachUserNeighbor(u, func(v2 NodeID, _ uint32) bool {
			if v2 != v {
				seen[v2] = struct{}{}
			}
			return true
		})
		return true
	})
	return sortedKeys(seen)
}

func sortedKeys(m map[NodeID]struct{}) []NodeID {
	if len(m) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
