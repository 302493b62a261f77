package bipartite

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// ownedClone copies g into storage of its own, through no pool: the
// reference the leased constructors are held to.
func ownedClone(g *Graph) *Graph {
	c := *g
	c.uAlive, c.vAlive = slices.Clone(g.uAlive), slices.Clone(g.vAlive)
	c.uDeg, c.vDeg = slices.Clone(g.uDeg), slices.Clone(g.vDeg)
	c.uStrength, c.vStrength = slices.Clone(g.uStrength), slices.Clone(g.vStrength)
	c.lease = nil
	return &c
}

// keepShare draws the IDs below n that a keep set of share holds.
func keepShare(rng *rand.Rand, n int, share float64) []NodeID {
	var ids []NodeID
	for id := range n {
		if rng.Float64() < share {
			ids = append(ids, NodeID(id))
		}
	}
	return ids
}

// leaseEverything runs every leased constructor on g and releases what each
// built: Clone, both legs of InducedSubgraph and CompactComponent on every
// component. Afterwards the pools hold arenas that last served g.
func leaseEverything(g *Graph, rng *rand.Rand) {
	g.Clone().Release()
	for _, share := range []float64{0.05, 0.95} {
		sub, err := InducedSubgraph(g, keepShare(rng, g.NumUsers(), share), keepShare(rng, g.NumItems(), share))
		if err != nil {
			panic(err)
		}
		sub.Release()
	}
	for _, comp := range ConnectedComponents(g) {
		c, _, _ := CompactComponent(g, comp)
		c.Release()
	}
}

// TestLeasedGraphsReadLikeFreshOnes: every constructor that leases its
// storage — Clone, both legs of InducedSubgraph, CompactComponent — builds,
// in an arena that last served a larger graph and then a smaller one, the
// graph a build in storage of its own gives, in every observable: sizes,
// totals, removal epoch, and each vertex's liveness, degree, strength and
// live arcs.
func TestLeasedGraphsReadLikeFreshOnes(t *testing.T) {
	var legs [2]int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		larger, _ := randomGraph(seed+1000, 200, 200, 3000)
		smaller, _ := randomGraph(seed+2000, 20, 20, 60)
		g, _ := randomGraph(seed, 80, 80, 600)
		killSome(g, rng)
		dirty := func() {
			leaseEverything(larger, rng)
			leaseEverything(smaller, rng)
		}

		dirty()
		c := g.Clone()
		if d := graphDiff(c, ownedClone(g)); d != "" {
			t.Fatalf("seed %d: Clone: %s", seed, d)
		}
		c.Release()

		for _, share := range []float64{0.05, 0.95} {
			users, items := keepShare(rng, g.NumUsers(), share), keepShare(rng, g.NumItems(), share)
			build := buildsInduced(g, users, items)
			if build {
				legs[0]++
			} else {
				legs[1]++
			}
			want := inducedByRemoval(g, users, items)
			dirty()
			sub, err := InducedSubgraph(g, users, items)
			if err != nil {
				t.Fatal(err)
			}
			if d := graphDiff(sub, want); d != "" {
				t.Fatalf("seed %d: InducedSubgraph (build leg %v): %s", seed, build, d)
			}
			sub.Release()
		}

		dirty()
		for _, comp := range ConnectedComponents(g) {
			want, wantU, wantV := Compact(inducedByRemoval(g, comp.Users, comp.Items))
			got, gotU, gotV := CompactComponent(g, comp)
			if !slices.Equal(gotU, wantU) || !slices.Equal(gotV, wantV) {
				t.Fatalf("seed %d: component %+v: maps %v %v, want %v %v", seed, comp, gotU, gotV, wantU, wantV)
			}
			if d := graphDiff(got, want); d != "" {
				t.Fatalf("seed %d: CompactComponent of %+v: %s", seed, comp, d)
			}
			got.Release() // the next component takes this arena
		}
	}
	if legs[0] == 0 || legs[1] == 0 {
		t.Fatalf("legs taken: build %d, remove %d; want both", legs[0], legs[1])
	}
}

// leasedBuilds are the constructors that lease a graph's storage, each run
// on the package fixture.
func leasedBuilds(t *testing.T) map[string]func() *Graph {
	g := testGraph(t)
	induced := func(users, items []NodeID) func() *Graph {
		return func() *Graph {
			sub, err := InducedSubgraph(g, users, items)
			if err != nil {
				t.Fatal(err)
			}
			return sub
		}
	}
	return map[string]func() *Graph{
		"Clone":                  g.Clone,
		"InducedSubgraph build":  induced([]NodeID{0}, []NodeID{0}),
		"InducedSubgraph remove": induced([]NodeID{0, 1, 2}, []NodeID{0, 1, 2}),
		"CompactComponent":       func() *Graph { c, _, _ := CompactComponent(g, ConnectedComponents(g)[0]); return c },
	}
}

// TestReleasedGraphPanics: a released graph reads as one with no vertices,
// and an accessor given a vertex it had panics instead of reading the arena's
// next graph.
func TestReleasedGraphPanics(t *testing.T) {
	for name, build := range leasedBuilds(t) {
		c := build()
		c.Release()
		if c.NumUsers() != 0 || c.NumItems() != 0 || c.LiveEdges() != 0 || c.LiveClicks() != 0 {
			t.Errorf("%s: released graph reads %v", name, c)
		}
		mustPanic(t, name+": UserDegree", func() { c.UserDegree(0) })
		mustPanic(t, name+": UserStrength", func() { c.UserStrength(0) })
		mustPanic(t, name+": UserArcs", func() { c.UserArcs(0) })
	}
}

// drainArenas empties pool and returns the arenas it held, stopping at the
// first fresh one.
func drainArenas(pool *sync.Pool) []*arena {
	var held []*arena
	for {
		a := pool.Get().(*arena)
		if a.pool == nil { // New made it: the pool is empty
			return held
		}
		held = append(held, a)
	}
}

// TestReleaseOfUnleasedOrReleasedGraphIsANoOp: Release changes nothing on a
// graph that owns its storage and hands nothing back for it, and a second
// Release of a leased graph hands nothing back twice.
func TestReleaseOfUnleasedOrReleasedGraphIsANoOp(t *testing.T) {
	g := testGraph(t)
	patched := PatchGraph(g, []Edge{{U: 0, V: 3, Weight: 2}, {U: 4, V: 0, Weight: 1}})
	owned := map[string]*Graph{
		"Builder":    g,
		"NewGraph":   NewGraph(3, 2),
		"FromEdges":  FromEdges([]Edge{{U: 0, V: 1, Weight: 4}}),
		"PatchGraph": patched,
	}
	checkPools := !raceEnabled // under -race, sync.Pool drops what it is given at random
	for name, og := range owned {
		want := ownedClone(og)
		drainArenas(&livenessArenas)
		drainArenas(&compactArenas)
		og.Release()
		og.Release()
		if d := graphDiff(og, want); d != "" {
			t.Errorf("%s: Release changed the graph: %s", name, d)
		}
		if checkPools {
			if n := len(drainArenas(&livenessArenas)) + len(drainArenas(&compactArenas)); n != 0 {
				t.Errorf("%s: Release of an unleased graph put %d arenas in the pools", name, n)
			}
		}
	}

	for name, build := range leasedBuilds(t) {
		c := build()
		lease := c.lease
		if lease == nil {
			t.Fatalf("%s: built graph holds no lease", name)
		}
		drainArenas(lease.pool)
		c.Release()
		c.Release()
		if !checkPools {
			continue
		}
		// A collection may empty the pool on its own, so one arena back is
		// the most there can be, and it must be this graph's.
		back := drainArenas(lease.pool)
		if len(back) > 1 || len(back) == 1 && back[0] != lease {
			t.Errorf("%s: two Releases put back %d arenas, want this graph's one", name, len(back))
		}
	}
}
