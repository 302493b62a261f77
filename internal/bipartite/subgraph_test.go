package bipartite

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// inducedByRemoval is the definition InducedSubgraph's two legs are checked
// against: clone g, then remove every live vertex outside the kept sets.
func inducedByRemoval(g *Graph, users, items []NodeID) *Graph {
	keepU, keepV := map[NodeID]bool{}, map[NodeID]bool{}
	for _, u := range users {
		keepU[u] = true
	}
	for _, v := range items {
		keepV[v] = true
	}
	sub := g.Clone()
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

// sameLiveState reports whether two graphs agree on every vertex's
// liveness, live degree and strength, the live totals, the removal epoch
// and the live edge list.
func sameLiveState(got, want *Graph) bool {
	if got.NumUsers() != want.NumUsers() || got.NumItems() != want.NumItems() ||
		got.LiveUsers() != want.LiveUsers() || got.LiveItems() != want.LiveItems() ||
		got.LiveEdges() != want.LiveEdges() || got.LiveClicks() != want.LiveClicks() ||
		got.RemovalEpoch() != want.RemovalEpoch() {
		return false
	}
	for u := 0; u < want.NumUsers(); u++ {
		id := NodeID(u)
		if got.UserAlive(id) != want.UserAlive(id) || got.UserDegree(id) != want.UserDegree(id) ||
			got.UserStrength(id) != want.UserStrength(id) {
			return false
		}
	}
	for v := 0; v < want.NumItems(); v++ {
		id := NodeID(v)
		if got.ItemAlive(id) != want.ItemAlive(id) || got.ItemDegree(id) != want.ItemDegree(id) ||
			got.ItemStrength(id) != want.ItemStrength(id) {
			return false
		}
	}
	return slices.Equal(got.Edges(), want.Edges())
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
	f := func(seed int64, kills []uint16) bool {
		g := randomGraph(seed, 60, 60, 400)
		rng := rand.New(rand.NewSource(seed ^ 0x1d))
		for _, k := range kills {
			if rng.Intn(2) == 0 {
				g.RemoveUser(NodeID(int(k) % g.NumUsers()))
			} else {
				g.RemoveItem(NodeID(int(k) % g.NumItems()))
			}
		}
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
		return err == nil && sameLiveState(sub, inducedByRemoval(g, users, items)) &&
			sameLiveState(g, before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if legs[0] == 0 || legs[1] == 0 {
		t.Fatalf("legs taken: build %d, remove %d; want both", legs[0], legs[1])
	}
}

// Property: on every component of a random graph with deaths,
// CompactComponent equals the Builder round-trip Compact of that component's
// induced subgraph — the same ID maps and the same compact graph.
func TestPropertyCompactComponentMatchesCompact(t *testing.T) {
	f := func(seed int64, kills []uint16) bool {
		g := randomGraph(seed, 50, 50, 120)
		rng := rand.New(rand.NewSource(seed ^ 0xc0))
		for _, k := range kills {
			if rng.Intn(2) == 0 {
				g.RemoveUser(NodeID(int(k) % g.NumUsers()))
			} else {
				g.RemoveItem(NodeID(int(k) % g.NumItems()))
			}
		}
		for _, comp := range ConnectedComponents(g) {
			sub, err := InducedSubgraph(g, comp.Users, comp.Items)
			if err != nil {
				return false
			}
			want, wantU, wantV := Compact(sub)
			got, gotU, gotV := CompactComponent(g, comp)
			if !slices.Equal(gotU, wantU) || !slices.Equal(gotV, wantV) || !sameLiveState(got, want) {
				return false
			}
			for lu := range gotU {
				if !slices.Equal(got.UserArcs(NodeID(lu)), want.UserArcs(NodeID(lu))) {
					return false
				}
			}
			for lv := range gotV {
				if !slices.Equal(got.ItemArcs(NodeID(lv)), want.ItemArcs(NodeID(lv))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
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
