package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
)

// Property: pruning is monotone in the edge set — adding clicks never
// causes a previously surviving vertex to be pruned.
func TestPropertyPruneMonotoneUnderEdgeAddition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
		g := randomPruneGraph(seed)
		p := params(6, 6, 0.9)

		before := g.Clone()
		prune(before, p)

		// Add random extra edges on top of the same base graph.
		b := bipartite.NewBuilder(60, 60)
		addLiveEdges(b, g)
		for e := 0; e < 60; e++ {
			b.Add(bipartite.NodeID(rng.Intn(60)), bipartite.NodeID(rng.Intn(60)), 1)
		}
		after := b.Build()
		prune(after, p)

		ok := true
		before.EachLiveUser(func(u bipartite.NodeID) bool {
			if !after.UserAlive(u) {
				ok = false
			}
			return ok
		})
		before.EachLiveItem(func(v bipartite.NodeID) bool {
			if !after.ItemAlive(v) {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: screening never invents nodes — every screened user/item was in
// some candidate group, and screened groups satisfy the size bounds.
func TestPropertyScreeningSubsetOfCandidates(t *testing.T) {
	f := func(seed int64) bool {
		g := randomPruneGraph(seed)
		p := params(5, 5, 0.8)
		p.THot = 200
		hot := ComputeHotSet(g, p.THot)
		work := g.Clone()
		candidates := extractGroups(work, p)
		inCand := map[bipartite.NodeID]bool{}
		inCandV := map[bipartite.NodeID]bool{}
		for _, grp := range candidates {
			for _, u := range grp.Users {
				inCand[u] = true
			}
			for _, v := range grp.Items {
				inCandV[v] = true
			}
		}
		for _, grp := range screenGroups(g, candidates, hot, p) {
			if len(grp.Users) < p.K1 || len(grp.Items) < p.K2 {
				return false
			}
			for _, u := range grp.Users {
				if !inCand[u] {
					return false
				}
			}
			for _, v := range grp.Items {
				if !inCandV[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
