package core

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/bipartite"
	"repro/internal/detect"
)

// This file is the reference model of Algorithm 3 that the fixpoint driver
// (fixpoint_test.go) and the frontier, widemask, audit and prune
// postcondition tests compare the production pipeline against: one monolithic
// graph, every live vertex re-evaluated every round, a plain 2-hop walk on
// both sides. It shares no pruning kernel with production — its own degree
// peel, its own user and item walks — nor Module 3: it ranks by walking item
// columns (refRank) where production pushes along user rows. It takes no
// context, observer, audit sink or fault site, so it is small enough to be
// checked against the paper by reading it. It keeps production's round protocol (core fixpoint, then
// all users against the frozen graph, then all items against the graph
// without that round's user victims) so PruneStats, Rounds and RemovalEpoch
// compare exactly, not just the residual.

// refCorePrune is CorePruning (Lemma 1) to its fixpoint, by whole-graph
// scans: users need ⌈α·k₂⌉ live items, items ⌈α·k₁⌉ live users.
func refCorePrune(g *bipartite.Graph, p Params) (users, items int) {
	minUDeg, minIDeg := ceilMul(p.K2, p.Alpha), ceilMul(p.K1, p.Alpha)
	for changed := true; changed; {
		changed = false
		for _, u := range g.LiveUserIDs() {
			if g.UserDegree(u) < minUDeg {
				g.RemoveUser(u)
				users++
				changed = true
			}
		}
		for _, v := range g.LiveItemIDs() {
			if g.ItemDegree(v) < minIDeg {
				g.RemoveItem(v)
				items++
				changed = true
			}
		}
	}
	return users, items
}

// refUserSurvives is the user-side square condition (Definition 4, Lemma 2):
// at least k1 users — u itself included, it shares all its items with itself
// — have ≥ need live items in common with u.
func refUserSurvives(g *bipartite.Graph, u bipartite.NodeID, need, k1 int) bool {
	common := make([]int, g.NumUsers())
	g.EachUserNeighbor(u, func(v bipartite.NodeID, _ uint32) bool {
		g.EachItemNeighbor(v, func(y bipartite.NodeID, _ uint32) bool {
			common[y]++
			return true
		})
		return true
	})
	n := 0
	for _, c := range common {
		if c >= need {
			n++
		}
	}
	return n >= k1
}

// refItemSurvives is the item-side dual of refUserSurvives.
func refItemSurvives(g *bipartite.Graph, v bipartite.NodeID, need, k2 int) bool {
	common := make([]int, g.NumItems())
	g.EachItemNeighbor(v, func(u bipartite.NodeID, _ uint32) bool {
		g.EachUserNeighbor(u, func(y bipartite.NodeID, _ uint32) bool {
			common[y]++
			return true
		})
		return true
	})
	n := 0
	for _, c := range common {
		if c >= need {
			n++
		}
	}
	return n >= k2
}

// refPrune iterates Core and Square pruning on g to the fixpoint at which
// Lemmas 1–2 hold.
func refPrune(g *bipartite.Graph, p Params) PruneStats {
	needU, needI := ceilMul(p.K2, p.Alpha), ceilMul(p.K1, p.Alpha)
	var st PruneStats
	for {
		st.Rounds++
		coreU, coreI := refCorePrune(g, p)
		var uVictims, iVictims []bipartite.NodeID
		for _, u := range g.LiveUserIDs() {
			if !refUserSurvives(g, u, needU, p.K1) {
				uVictims = append(uVictims, u)
			}
		}
		for _, u := range uVictims {
			g.RemoveUser(u)
		}
		for _, v := range g.LiveItemIDs() {
			if !refItemSurvives(g, v, needI, p.K2) {
				iVictims = append(iVictims, v)
			}
		}
		for _, v := range iVictims {
			g.RemoveItem(v)
		}
		st.UsersRemoved += coreU + len(uVictims)
		st.ItemsRemoved += coreI + len(iVictims)
		if len(uVictims) == 0 && len(iVictims) == 0 {
			return st
		}
	}
}

// refPruneSinglePass is the paper's literal Algorithm 3 pseudocode: one
// sequential pass of each stage with immediate removals (so earlier removals
// are visible to later vertices), no iteration. It may leave vertices the
// fixpoint removes.
func refPruneSinglePass(g *bipartite.Graph, p Params) PruneStats {
	needU, needI := ceilMul(p.K2, p.Alpha), ceilMul(p.K1, p.Alpha)
	st := PruneStats{Rounds: 1}
	for _, u := range g.LiveUserIDs() {
		if g.UserDegree(u) < needU {
			g.RemoveUser(u)
			st.UsersRemoved++
		}
	}
	for _, v := range g.LiveItemIDs() {
		if g.ItemDegree(v) < needI {
			g.RemoveItem(v)
			st.ItemsRemoved++
		}
	}
	for _, u := range g.LiveUserIDs() {
		if !refUserSurvives(g, u, needU, p.K1) {
			g.RemoveUser(u)
			st.UsersRemoved++
		}
	}
	for _, v := range g.LiveItemIDs() {
		if !refItemSurvives(g, v, needI, p.K2) {
			g.RemoveItem(v)
			st.ItemsRemoved++
		}
	}
	return st
}

// refExtract prunes g to the fixpoint and returns the connected components of
// the residual that meet the Definition 3 size bounds |L| ≥ k₁, |R| ≥ k₂,
// largest first.
func refExtract(g *bipartite.Graph, p Params) []detect.Group {
	refPrune(g, p)
	var groups []detect.Group
	for _, grp := range refComponents(g) {
		if len(grp.Users) >= p.K1 && len(grp.Items) >= p.K2 {
			groups = append(groups, grp)
		}
	}
	return groups
}

// refComponents is a BFS from each live user not yet reached, in ascending
// order, member lists sorted, largest component first, ties in discovery
// order. Components without a user are left out: no group can be one.
func refComponents(g *bipartite.Graph) []detect.Group {
	uSeen := make([]bool, g.NumUsers())
	vSeen := make([]bool, g.NumItems())
	var comps []detect.Group
	for _, start := range g.LiveUserIDs() {
		if uSeen[start] {
			continue
		}
		c := detect.Group{Users: []bipartite.NodeID{start}}
		uSeen[start] = true
		for head := 0; head < len(c.Users); head++ {
			g.EachUserNeighbor(c.Users[head], func(v bipartite.NodeID, _ uint32) bool {
				if vSeen[v] {
					return true
				}
				vSeen[v] = true
				c.Items = append(c.Items, v)
				g.EachItemNeighbor(v, func(y bipartite.NodeID, _ uint32) bool {
					if !uSeen[y] {
						uSeen[y] = true
						c.Users = append(c.Users, y)
					}
					return true
				})
				return true
			})
		}
		slices.Sort(c.Users)
		slices.Sort(c.Items)
		comps = append(comps, c)
	}
	slices.SortStableFunc(comps, func(a, b detect.Group) int {
		return cmp.Compare(len(b.Users)+len(b.Items), len(a.Users)+len(a.Items))
	})
	return comps
}

// refDetect is the Fig 4 pipeline around the reference extraction: hotness on
// the whole graph, Algorithm 3 on a clone, one global screening pass over all
// candidates, and the reference identification.
func refDetect(g *bipartite.Graph, p Params) *detect.Result {
	hot := ComputeHotSet(g, p.THot)
	groups := refExtract(g.Clone(), p)
	p.Workers = 1
	groups = screenGroups(g, groups, hot, p)
	res := &detect.Result{Groups: groups}
	refIdentify(g, res)
	return res
}

// refRank is Module 3's ranking read the way §VII states it, by pulling: a
// user's score is the number of live suspicious items in its row; an item's
// score is the sum of its column's suspicious clickers' scores, each found
// by binary search, over the number of live clickers in the column.
func refRank(g *bipartite.Graph, res *detect.Result) (users, items []detect.Scored) {
	ids, sus := res.Users(), res.Items()
	for _, u := range ids {
		n := 0
		g.EachUserNeighbor(u, func(v bipartite.NodeID, _ uint32) bool {
			if _, found := slices.BinarySearch(sus, v); found {
				n++
			}
			return true
		})
		users = append(users, detect.Scored{ID: u, Score: float64(n)})
	}
	for _, v := range sus {
		var sum float64
		n := 0
		g.EachItemNeighbor(v, func(u bipartite.NodeID, _ uint32) bool {
			if i, found := slices.BinarySearch(ids, u); found {
				sum += users[i].Score
			}
			n++
			return true
		})
		score := 0.0
		if n > 0 {
			score = sum / float64(n)
		}
		items = append(items, detect.Scored{ID: v, Score: score})
	}
	byRisk := func(a, b detect.Scored) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	}
	slices.SortStableFunc(users, byRisk)
	slices.SortStableFunc(items, byRisk)
	return users, items
}

// refIdentify scores each group with its users' mean risk, measures its
// statistics on g by walking its items' columns, and orders the groups most
// suspicious first, ties keeping their order.
func refIdentify(g *bipartite.Graph, res *detect.Result) {
	res.RankedUsers, res.RankedItems = refRank(g, res)
	risk := make(map[bipartite.NodeID]float64, len(res.RankedUsers))
	for _, n := range res.RankedUsers {
		risk[n.ID] = n.Score
	}
	for gi := range res.Groups {
		grp := &res.Groups[gi]
		var sum float64
		member := make(map[bipartite.NodeID]bool, len(grp.Users))
		for _, u := range grp.Users {
			sum += risk[u]
			member[u] = true
		}
		grp.Score = sum / float64(max(len(grp.Users), 1))
		var edges int
		var fake, total uint64
		for _, v := range grp.Items {
			total += g.ItemStrength(v)
			g.EachItemNeighbor(v, func(u bipartite.NodeID, w uint32) bool {
				if member[u] {
					edges++
					fake += uint64(w)
				}
				return true
			})
		}
		grp.Density, grp.MeanEdgeClicks, grp.OutsideShare = 0, 0, 0
		if len(grp.Users) > 0 && len(grp.Items) > 0 {
			grp.Density = float64(edges) / (float64(len(grp.Users)) * float64(len(grp.Items)))
		}
		if edges > 0 {
			grp.MeanEdgeClicks = float64(fake) / float64(edges)
		}
		if total > 0 {
			grp.OutsideShare = float64(total-fake) / float64(total)
		}
	}
	slices.SortStableFunc(res.Groups, func(a, b detect.Group) int { return cmp.Compare(b.Score, a.Score) })
	res.Identified = true
}

// The helpers below call the context-taking entry points for tests that
// neither cancel nor observe.

func prune(g *bipartite.Graph, p Params) PruneStats {
	st, _ := PruneCtx(context.Background(), g, p, nil)
	return st
}

func extractGroups(g *bipartite.Graph, p Params) []detect.Group {
	groups, _ := NearBicliqueExtractCtx(context.Background(), g, p, nil, nil)
	return groups
}

func screenGroups(g *bipartite.Graph, groups []detect.Group, hot *HotSet, p Params) []detect.Group {
	out, _ := ScreenGroupsCtx(context.Background(), g, groups, hot, p, nil, nil)
	return out
}
