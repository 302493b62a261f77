package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
)

// randomPruneGraph builds a random bipartite graph mixing a planted dense
// block with noise, for pruning property tests.
func randomPruneGraph(seed int64) *bipartite.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := bipartite.NewBuilder(60, 60)
	// Planted block with random size 6..14.
	n := 6 + rng.Intn(9)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.9 {
				b.Add(bipartite.NodeID(u), bipartite.NodeID(v), uint32(1+rng.Intn(15)))
			}
		}
	}
	for e := 0; e < 250; e++ {
		b.Add(bipartite.NodeID(rng.Intn(60)), bipartite.NodeID(rng.Intn(60)), uint32(1+rng.Intn(3)))
	}
	return b.Build()
}

// Property: the pruning fixpoint is independent of worker count — the
// batch-parallel rounds and the serial rounds land on the same (unique
// maximal) fixpoint.
func TestPropertyFixpointWorkerIndependent(t *testing.T) {
	f := func(seed int64) bool {
		g1 := randomPruneGraph(seed)
		g2 := g1.Clone()
		p1 := params(6, 6, 0.8)
		p1.Workers = 1
		p2 := p1
		p2.Workers = 8
		prune(g1, p1)
		prune(g2, p2)
		if g1.LiveUsers() != g2.LiveUsers() || g1.LiveItems() != g2.LiveItems() {
			return false
		}
		ok := true
		g1.EachLiveUser(func(u bipartite.NodeID) bool {
			if !g2.UserAlive(u) {
				ok = false
			}
			return ok
		})
		g1.EachLiveItem(func(v bipartite.NodeID) bool {
			if !g2.ItemAlive(v) {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

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
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: every extracted group is a subgraph whose vertices all satisfy
// the Definition 3 size bounds, and groups are vertex-disjoint.
func TestPropertyExtractedGroupsDisjointAndSized(t *testing.T) {
	f := func(seed int64) bool {
		g := randomPruneGraph(seed)
		p := params(5, 5, 0.8)
		groups := extractGroups(g, p)
		seenU := map[bipartite.NodeID]bool{}
		seenV := map[bipartite.NodeID]bool{}
		for _, grp := range groups {
			if len(grp.Users) < p.K1 || len(grp.Items) < p.K2 {
				return false
			}
			for _, u := range grp.Users {
				if seenU[u] {
					return false
				}
				seenU[u] = true
			}
			for _, v := range grp.Items {
				if seenV[v] {
					return false
				}
				seenV[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
