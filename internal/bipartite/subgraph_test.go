package bipartite

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// inducedByRemoval is the definition InducedSubgraph's two legs are checked
// against: copy g into storage of its own, then remove every live vertex
// outside the kept sets.
func inducedByRemoval(g *Graph, users, items []NodeID) *Graph {
	keepU, keepV := map[NodeID]bool{}, map[NodeID]bool{}
	for _, u := range users {
		keepU[u] = true
	}
	for _, v := range items {
		keepV[v] = true
	}
	sub := ownedClone(g)
	for _, u := range sub.LiveUserIDs() {
		if !keepU[u] {
			sub.RemoveUser(u)
		}
	}
	for _, v := range sub.LiveItemIDs() {
		if !keepV[v] {
			sub.RemoveItem(v)
		}
	}
	return sub
}

// buildsInduced restates InducedSubgraph's leg choice, so the property test
// can show that both legs ran: build when the kept users' live degree is no
// more than the dropped vertices'.
func buildsInduced(g *Graph, users, items []NodeID) bool {
	seenU, seenV := map[NodeID]bool{}, map[NodeID]bool{}
	var keptU, keptV int
	for _, u := range users {
		if !seenU[u] {
			seenU[u] = true
			keptU += g.UserDegree(u)
		}
	}
	for _, v := range items {
		if !seenV[v] {
			seenV[v] = true
			keptV += g.ItemDegree(v)
		}
	}
	return keptU <= 2*g.LiveEdges()-keptU-keptV
}

// Property: InducedSubgraph — whichever leg it takes — leaves exactly the
// state of clone-and-remove, on graphs with prior deaths and keep sets that
// are near empty, near full or in between, with duplicate and dead IDs.
func TestPropertyInducedSubgraphMatchesCloneAndRemove(t *testing.T) {
	var legs [2]int
	f := func(seed int64) bool {
		g, _ := randomGraph(seed, 60, 60, 400)
		rng := rand.New(rand.NewSource(seed ^ 0x1d))
		killSome(g, rng)
		keep := [...]float64{0.03, 0.97, 0.5}[rng.Intn(3)]
		pick := func(n int) []NodeID {
			var ids []NodeID
			for _, id := range rng.Perm(n) {
				if rng.Float64() < keep {
					ids = append(ids, NodeID(id))
				}
			}
			if len(ids) > 0 && rng.Intn(2) == 0 {
				ids = append(ids, ids[rng.Intn(len(ids))]) // a duplicate
			}
			return ids
		}
		users, items := pick(g.NumUsers()), pick(g.NumItems())
		if buildsInduced(g, users, items) {
			legs[0]++
		} else {
			legs[1]++
		}
		before := g.Clone()
		sub, err := InducedSubgraph(g, users, items)
		return err == nil && graphDiff(sub, inducedByRemoval(g, users, items)) == "" &&
			graphDiff(g, before) == ""
	}
	if err := quick.Check(f, seeded(300)); err != nil {
		t.Fatal(err)
	}
	if legs[0] == 0 || legs[1] == 0 {
		t.Fatalf("legs taken: build %d, remove %d; want both", legs[0], legs[1])
	}
}

// Property: ComponentsOf is ConnectedComponents of the induced subgraph it
// does not build — the same components, order and member lists, nil where
// the definition has nil — on graphs with prior deaths and member sets that
// are empty, near empty, near full or in between, with duplicate and dead
// IDs. g is left as it was, and the flags ComponentsOf pools come back
// clear: a second call, after a whole-graph split on the same scratch,
// agrees.
func TestPropertyComponentsOfIsConnectedComponentsOfInducedSubgraph(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := randomGraph(seed, 60, 60, 200)
		rng := rand.New(rand.NewSource(seed ^ 0x2b))
		killSome(g, rng)
		pick := func(n int) []NodeID {
			keep := [...]float64{0, 0.03, 0.5, 0.97}[rng.Intn(4)]
			var ids []NodeID
			for _, id := range rng.Perm(n) {
				if rng.Float64() < keep {
					ids = append(ids, NodeID(id))
				}
			}
			if len(ids) > 0 && rng.Intn(2) == 0 {
				ids = append(ids, ids[rng.Intn(len(ids))]) // a duplicate
			}
			return ids
		}
		users, items := pick(g.NumUsers()), pick(g.NumItems())
		sub, err := InducedSubgraph(g, users, items)
		if err != nil {
			return false
		}
		want := ConnectedComponents(sub)
		before := g.Clone()
		got := ComponentsOf(g, users, items)
		ConnectedComponents(g)
		again := ComponentsOf(g, users, items)
		return reflect.DeepEqual(got, want) && reflect.DeepEqual(again, want) && graphDiff(g, before) == ""
	}
	if err := quick.Check(f, seeded(300)); err != nil {
		t.Fatal(err)
	}
}

// Compact rewrites the graph dropping dead vertices and returns the new
// graph along with mappings from new IDs back to the IDs in g, through a
// Builder round-trip. It is the oracle CompactComponent is checked against.
func Compact(g *Graph) (c *Graph, userOf, itemOf []NodeID) {
	userOf = g.LiveUserIDs()
	itemOf = g.LiveItemIDs()
	newU := make(map[NodeID]NodeID, len(userOf))
	newV := make(map[NodeID]NodeID, len(itemOf))
	for i, u := range userOf {
		newU[u] = NodeID(i)
	}
	for i, v := range itemOf {
		newV[v] = NodeID(i)
	}
	b := NewBuilder(len(userOf), len(itemOf))
	for _, u := range userOf {
		g.EachUserNeighbor(u, func(v NodeID, w uint32) bool {
			b.Add(newU[u], newV[v], w)
			return true
		})
	}
	return b.Build(), userOf, itemOf
}

// compactDiff holds g to the compaction contract, or describes where it
// breaks. Compact keeps one vertex per live vertex of g and every live edge
// with its weight. On every component of g, CompactComponent
// equals Compact of the component's induced subgraph: the same ID maps and
// the same compact graph.
func compactDiff(g *Graph) string {
	c, userOf, itemOf := Compact(g)
	if c.NumUsers() != g.LiveUsers() || c.NumItems() != g.LiveItems() ||
		c.LiveEdges() != g.LiveEdges() || c.LiveClicks() != g.LiveClicks() {
		return fmt.Sprintf("Compact gave %v for %v", c, g)
	}
	for _, e := range c.Edges() {
		if w := g.Weight(userOf[e.U], itemOf[e.V]); w != e.Weight {
			return fmt.Sprintf("Compact: edge %+v maps to weight %d", e, w)
		}
	}
	for _, comp := range ConnectedComponents(g) {
		sub, err := InducedSubgraph(g, comp.Users, comp.Items)
		if err != nil {
			return err.Error()
		}
		want, wantU, wantV := Compact(sub)
		got, gotU, gotV := CompactComponent(g, comp)
		if !slices.Equal(gotU, wantU) || !slices.Equal(gotV, wantV) {
			return fmt.Sprintf("component %+v: maps %v %v, want %v %v", comp, gotU, gotV, wantU, wantV)
		}
		if d := graphDiff(got, want); d != "" {
			return fmt.Sprintf("component %+v: %s", comp, d)
		}
	}
	return ""
}

// compactCheck holds the graphs draw gives for n seeded draws to
// compactDiff. The tests below are its cases.
func compactCheck(t *testing.T, n int, draw func(seed int64) *Graph) {
	t.Helper()
	f := func(seed int64) bool {
		d := compactDiff(draw(seed))
		if d != "" {
			t.Logf("seed %d: %s", seed, d)
		}
		return d == ""
	}
	if err := quick.Check(f, seeded(n)); err != nil {
		t.Fatal(err)
	}
}

// randomWithDeaths is a random graph after up to 49 removals.
func randomWithDeaths(maxUsers, maxItems, n int) func(seed int64) *Graph {
	return func(seed int64) *Graph {
		g, _ := randomGraph(seed, maxUsers, maxItems, n)
		killSome(g, rand.New(rand.NewSource(seed^0xc0)))
		return g
	}
}

// Sparse random graphs with deaths: many components.
func TestPropertyCompactComponentMatchesCompact(t *testing.T) {
	compactCheck(t, 100, randomWithDeaths(50, 50, 120))
}

// Denser random graphs with deaths: few, larger components.
func TestPropertyCompactPreservesEdges(t *testing.T) {
	compactCheck(t, 40, randomWithDeaths(30, 30, 150))
}

// The package fixture with a user and an item dead.
func TestCompact(t *testing.T) {
	compactCheck(t, 1, func(int64) *Graph {
		g := testGraph(t)
		g.RemoveUser(0)
		g.RemoveItem(1)
		return g
	})
}

// Two separated blocks of distinct weights, with a user and an item dead.
func TestCompactComponentPreservesStructure(t *testing.T) {
	compactCheck(t, 1, func(int64) *Graph {
		b := NewBuilder(0, 0)
		for u := 0; u < 8; u++ {
			for v := 0; v < 8; v++ {
				b.Add(NodeID(u), NodeID(v), uint32(1+u+v))
			}
		}
		for u := 20; u < 26; u++ {
			for v := 30; v < 35; v++ {
				b.Add(NodeID(u), NodeID(v), 3)
			}
		}
		g := b.Build()
		g.RemoveUser(7)
		g.RemoveItem(2)
		return g
	})
}

// One dense component with a user and an item dead.
func TestCompactComponentAgreesWithCompact(t *testing.T) {
	compactCheck(t, 1, func(int64) *Graph {
		g, _ := randomGraph(9, 15, 12, 400)
		g.RemoveUser(3)
		g.RemoveItem(8)
		return g
	})
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

// A component that is not closed under live adjacency panics, on either
// side, even right after a compaction that left the pooled item index
// pointing at the outside neighbour.
func TestCompactComponentPanicsOnOutsideNeighbor(t *testing.T) {
	// user 0 — item 0 — user 1 — item 1
	g := FromEdges([]Edge{{U: 0, V: 0, Weight: 1}, {U: 1, V: 0, Weight: 2}, {U: 1, V: 1, Weight: 3}})
	whole := Component{Users: []NodeID{0, 1}, Items: []NodeID{0, 1}}
	CompactComponent(g, whole) // index: item 0 → 0, item 1 → 1
	mustPanic(t, "user side", func() {
		// User 1 reaches item 0, whose stale index entry is local 0 —
		// which is item 1 in this component.
		CompactComponent(g, Component{Users: []NodeID{1}, Items: []NodeID{1}})
	})
	CompactComponent(g, whole)
	mustPanic(t, "item side", func() {
		// Item 0 has live user 1 outside the component.
		CompactComponent(g, Component{Users: []NodeID{0}, Items: []NodeID{0}})
	})
	// Once user 1 is dead, {user 0, item 0} is closed again.
	g.RemoveUser(1)
	if c, _, _ := CompactComponent(g, Component{Users: []NodeID{0}, Items: []NodeID{0}}); c.LiveEdges() != 1 {
		t.Fatalf("closed component compacted to %d edges, want 1", c.LiveEdges())
	}
}

// Compacting many tiny components of a graph with many items allocates in
// proportion to the components: the dense item index is pooled, not sized
// to the graph per call.
func TestCompactComponentAllocatesPerComponent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers on purpose")
	}
	const comps, items = 2000, 50000
	b := NewBuilder(comps, items)
	for u := 0; u < comps; u++ {
		b.Add(NodeID(u), NodeID(u*items/comps), 1)
	}
	g := b.Build()
	var pairs []Component
	for _, c := range ConnectedComponents(g) {
		if len(c.Users) > 0 {
			pairs = append(pairs, c)
		}
	}
	if len(pairs) != comps {
		t.Fatalf("%d two-vertex components, want %d", len(pairs), comps)
	}
	CompactComponent(g, pairs[0]) // size the pooled index once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range pairs {
		CompactComponent(g, c)
	}
	runtime.ReadMemStats(&after)
	perComp := float64(after.TotalAlloc-before.TotalAlloc) / comps
	// One index per call would be 4·items = 200 kB; a compact two-vertex
	// graph is well under 1 kB, and a collection emptying the pool costs
	// one index per collection, not per call.
	if perComp > 4096 {
		t.Fatalf("%.0f bytes allocated per two-vertex component, want ≤ 4096 (an item index costs %d)",
			perComp, 4*items)
	}
}
