package core

import (
	"context"

	"repro/internal/bipartite"
	"repro/internal/detect"
)

// This file is the reference model of Algorithm 3 that the golden harnesses
// (shardequiv, shard_property, frontier, widemask, audit, prune
// postconditions) compare the production pipeline against: one monolithic
// graph, every live vertex re-evaluated every round, a plain 2-hop walk on
// both sides. It shares no pruning kernel with production — its own degree
// peel, its own user and item walks — and takes no context, observer, audit
// sink or fault site, so it is small enough to be checked against the paper
// by reading it. It keeps production's round protocol (core fixpoint, then
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
// the residual that meet the Definition 3 size bounds |L| ≥ k₁, |R| ≥ k₂.
func refExtract(g *bipartite.Graph, p Params) []detect.Group {
	refPrune(g, p)
	var groups []detect.Group
	for _, comp := range bipartite.ConnectedComponents(g) {
		if len(comp.Users) >= p.K1 && len(comp.Items) >= p.K2 {
			groups = append(groups, detect.Group{Users: comp.Users, Items: comp.Items})
		}
	}
	return groups
}

// refDetect is the Fig 4 pipeline around the reference extraction: hotness on
// the whole graph, Algorithm 3 on a clone, one global screening pass over all
// candidates, risk scoring.
func refDetect(g *bipartite.Graph, p Params) *detect.Result {
	hot := ComputeHotSet(g, p.THot)
	groups := refExtract(g.Clone(), p)
	p.Workers = 1
	groups = screenGroups(g, groups, hot, p)
	res := &detect.Result{Groups: groups}
	Identify(g, res)
	return res
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
