package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a reproducible random bipartite graph from a seed.
func randomGraph(seed int64, maxUsers, maxItems, maxEdges int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	nu := 1 + rng.Intn(maxUsers)
	ni := 1 + rng.Intn(maxItems)
	b := NewBuilder(nu, ni)
	ne := rng.Intn(maxEdges)
	for i := 0; i < ne; i++ {
		b.Add(NodeID(rng.Intn(nu)), NodeID(rng.Intn(ni)), uint32(1+rng.Intn(20)))
	}
	return b.Build()
}

// Property: for any graph, the sum of user strengths equals the sum of item
// strengths equals LiveClicks, and the sum of user degrees equals the sum of
// item degrees equals LiveEdges — before and after arbitrary deletions.
func TestPropertyDegreeStrengthConservation(t *testing.T) {
	f := func(seed int64, kills []uint16) bool {
		g := randomGraph(seed, 40, 40, 200)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for _, k := range kills {
			if rng.Intn(2) == 0 {
				g.RemoveUser(NodeID(int(k) % g.NumUsers()))
			} else {
				g.RemoveItem(NodeID(int(k) % g.NumItems()))
			}
		}
		var uDeg, vDeg int
		var uStr, vStr uint64
		g.EachLiveUser(func(u NodeID) bool {
			uDeg += g.UserDegree(u)
			uStr += g.UserStrength(u)
			return true
		})
		g.EachLiveItem(func(v NodeID) bool {
			vDeg += g.ItemDegree(v)
			vStr += g.ItemStrength(v)
			return true
		})
		return uDeg == g.LiveEdges() && vDeg == g.LiveEdges() &&
			uStr == g.LiveClicks() && vStr == g.LiveClicks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: adjacency is symmetric — u lists v with weight w iff v lists u
// with weight w.
func TestPropertyAdjacencySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 30, 150)
		ok := true
		g.EachLiveUser(func(u NodeID) bool {
			g.EachUserNeighbor(u, func(v NodeID, w uint32) bool {
				found := false
				g.EachItemNeighbor(v, func(u2 NodeID, w2 uint32) bool {
					if u2 == u {
						found = w2 == w
						return false
					}
					return true
				})
				if !found {
					ok = false
				}
				return ok
			})
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Compact preserves the multiset of edge weights and all live
// counts.
func TestPropertyCompactPreservesEdges(t *testing.T) {
	f := func(seed int64, kills []uint16) bool {
		g := randomGraph(seed, 30, 30, 150)
		for i, k := range kills {
			if i%2 == 0 {
				g.RemoveUser(NodeID(int(k) % g.NumUsers()))
			} else {
				g.RemoveItem(NodeID(int(k) % g.NumItems()))
			}
		}
		c, userOf, itemOf := Compact(g)
		if c.LiveUsers() != g.LiveUsers() || c.LiveItems() != g.LiveItems() ||
			c.LiveEdges() != g.LiveEdges() || c.LiveClicks() != g.LiveClicks() {
			return false
		}
		for _, e := range c.Edges() {
			if g.Weight(userOf[e.U], itemOf[e.V]) != e.Weight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: connected components partition the live vertex set (each live
// vertex appears in exactly one component).
func TestPropertyComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 30, 80)
		comps := ConnectedComponents(g)
		seenU := map[NodeID]int{}
		seenV := map[NodeID]int{}
		for _, c := range comps {
			for _, u := range c.Users {
				seenU[u]++
			}
			for _, v := range c.Items {
				seenV[v]++
			}
		}
		if len(seenU) != g.LiveUsers() || len(seenV) != g.LiveItems() {
			return false
		}
		for _, n := range seenU {
			if n != 1 {
				return false
			}
		}
		for _, n := range seenV {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: CommonUserNeighborsAtLeast agrees with the exact count for all k.
func TestPropertyCommonNeighborsAtLeastAgrees(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 20, 100)
		rng := rand.New(rand.NewSource(seed + 7))
		for trial := 0; trial < 20; trial++ {
			a := NodeID(rng.Intn(g.NumUsers()))
			b := NodeID(rng.Intn(g.NumUsers()))
			exact := CommonUserNeighbors(g, a, b)
			for k := 0; k <= exact+2; k++ {
				if CommonUserNeighborsAtLeast(g, a, b, k) != (exact >= k) {
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
