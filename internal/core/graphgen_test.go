package core

import (
	"fmt"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/detect"
)

// refGraphGeneratorBounded is GraphGeneratorBounded as it was written with
// map membership and its own clone-and-remove: the reference the array-marked
// generator, which hands its ball to InducedSubgraph, is checked against.
func refGraphGeneratorBounded(g *bipartite.Graph, seeds detect.Seeds, itemDegreeCap int) *bipartite.Graph {
	if seeds.Empty() {
		return g.Clone()
	}

	keepU := map[bipartite.NodeID]bool{}
	keepV := map[bipartite.NodeID]bool{}
	traverse := func(v bipartite.NodeID) bool {
		return itemDegreeCap <= 0 || g.ItemDegree(v) <= itemDegreeCap
	}

	// expandUser marks u, its items, their users, and those users' items.
	expandUser := func(u bipartite.NodeID) {
		if !g.UserAlive(u) {
			return
		}
		keepU[u] = true
		g.EachUserNeighbor(u, func(v bipartite.NodeID, _ uint32) bool {
			keepV[v] = true
			if !traverse(v) {
				return true
			}
			g.EachItemNeighbor(v, func(u2 bipartite.NodeID, _ uint32) bool {
				if !keepU[u2] {
					keepU[u2] = true
					g.EachUserNeighbor(u2, func(v2 bipartite.NodeID, _ uint32) bool {
						keepV[v2] = true
						return true
					})
				}
				return true
			})
			return true
		})
	}
	// expandItem marks v, its users, those users' items, and one more user
	// layer, so that co-attackers who skipped v itself but click its
	// sibling targets (Participation < 1 in the attack model) are included.
	expandItem := func(v bipartite.NodeID) {
		if !g.ItemAlive(v) {
			return
		}
		keepV[v] = true
		if !traverse(v) {
			return
		}
		g.EachItemNeighbor(v, func(u bipartite.NodeID, _ uint32) bool {
			if !keepU[u] {
				keepU[u] = true
				g.EachUserNeighbor(u, func(v2 bipartite.NodeID, _ uint32) bool {
					if keepV[v2] {
						return true
					}
					keepV[v2] = true
					if !traverse(v2) {
						return true
					}
					g.EachItemNeighbor(v2, func(u2 bipartite.NodeID, _ uint32) bool {
						keepU[u2] = true
						return true
					})
					return true
				})
			}
			return true
		})
	}

	for _, u := range seeds.Users {
		expandUser(u)
	}
	for _, v := range seeds.Items {
		expandItem(v)
	}

	sub := g.Clone()
	sub.EachLiveUser(func(u bipartite.NodeID) bool {
		if !keepU[u] {
			sub.RemoveUser(u)
		}
		return true
	})
	sub.EachLiveItem(func(v bipartite.NodeID) bool {
		if !keepV[v] {
			sub.RemoveItem(v)
		}
		return true
	})
	return sub
}

func TestGraphGeneratorBoundedMatchesMapReference(t *testing.T) {
	for i, ds := range corpusData() {
		g := ds.Graph.Clone()
		// Prior deaths: the generator must skip dead seeds and neighbours.
		for u := 0; u < g.NumUsers(); u += 17 {
			g.RemoveUser(bipartite.NodeID(u))
		}
		for v := 0; v < g.NumItems(); v += 23 {
			g.RemoveItem(bipartite.NodeID(v))
		}
		var seedSets []detect.Seeds
		for _, grp := range ds.Groups {
			seedSets = append(seedSets,
				detect.Seeds{Users: grp.Attackers[:2]},
				detect.Seeds{Items: grp.Targets[:1]},
				detect.Seeds{Users: grp.Attackers[len(grp.Attackers)-1:], Items: grp.Targets[1:3]})
		}
		var all detect.Seeds
		for _, s := range seedSets {
			all.Users = append(all.Users, s.Users...)
			all.Items = append(all.Items, s.Items...)
		}
		seedSets = append(seedSets, all, detect.Seeds{Users: []bipartite.NodeID{0, 1, 2, 3, 4}})
		for _, cap := range []int{0, 500, 3} {
			for si, seeds := range seedSets {
				name := fmt.Sprintf("workload%02d/cap%d/seeds%d", i, cap, si)
				got := GraphGeneratorBounded(g, seeds, cap)
				want := refGraphGeneratorBounded(g, seeds, cap)
				if msg := graphStateDiff(got, want); msg != "" {
					t.Fatalf("%s: %s", name, msg)
				}
			}
		}
	}
}

// graphStateDiff describes the first difference in liveness, live degree,
// strength, totals or removal epoch between two graphs over the same
// adjacency, or returns "".
func graphStateDiff(got, want *bipartite.Graph) string {
	if got.NumUsers() != want.NumUsers() || got.NumItems() != want.NumItems() {
		return fmt.Sprintf("sizes %d/%d, want %d/%d", got.NumUsers(), got.NumItems(), want.NumUsers(), want.NumItems())
	}
	if got.LiveUsers() != want.LiveUsers() || got.LiveItems() != want.LiveItems() ||
		got.LiveEdges() != want.LiveEdges() || got.LiveClicks() != want.LiveClicks() ||
		got.RemovalEpoch() != want.RemovalEpoch() {
		return fmt.Sprintf("totals %v epoch %d, want %v epoch %d", got, got.RemovalEpoch(), want, want.RemovalEpoch())
	}
	for u := 0; u < want.NumUsers(); u++ {
		id := bipartite.NodeID(u)
		if got.UserAlive(id) != want.UserAlive(id) || got.UserDegree(id) != want.UserDegree(id) ||
			got.UserStrength(id) != want.UserStrength(id) {
			return fmt.Sprintf("user %d diverges", u)
		}
	}
	for v := 0; v < want.NumItems(); v++ {
		id := bipartite.NodeID(v)
		if got.ItemAlive(id) != want.ItemAlive(id) || got.ItemDegree(id) != want.ItemDegree(id) ||
			got.ItemStrength(id) != want.ItemStrength(id) {
			return fmt.Sprintf("item %d diverges", v)
		}
	}
	return ""
}
