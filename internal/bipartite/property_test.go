package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// killSome removes up to 49 users and items of g drawn from rng.
func killSome(g *Graph, rng *rand.Rand) {
	for k := rng.Intn(50); k > 0; k-- {
		if rng.Intn(2) == 0 {
			g.RemoveUser(NodeID(rng.Intn(g.NumUsers())))
		} else {
			g.RemoveItem(NodeID(rng.Intn(g.NumItems())))
		}
	}
}

// seeded is the property tests' quick.Config: MaxCount draws from a fixed
// seed, so a fault a draw shows fails every run.
func seeded(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(1))}
}

// Property: for any graph, the sum of user strengths equals the sum of item
// strengths equals LiveClicks, and the sum of user degrees equals the sum of
// item degrees equals LiveEdges — before and after arbitrary deletions.
func TestPropertyDegreeStrengthConservation(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := randomGraph(seed, 40, 40, 200)
		killSome(g, rand.New(rand.NewSource(seed^0x5eed)))
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
	if err := quick.Check(f, seeded(60)); err != nil {
		t.Error(err)
	}
}

// Property: adjacency is symmetric — u lists v with weight w iff v lists u
// with weight w.
func TestPropertyAdjacencySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := randomGraph(seed, 30, 30, 150)
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
	if err := quick.Check(f, seeded(40)); err != nil {
		t.Error(err)
	}
}

// Property: connected components partition the live vertex set (each live
// vertex appears in exactly one component).
func TestPropertyComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := randomGraph(seed, 30, 30, 80)
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
	if err := quick.Check(f, seeded(40)); err != nil {
		t.Error(err)
	}
}
