package bipartite

import (
	"testing"
)

// testGraph builds the small fixture used across the package tests:
//
//	u0 — v0(3), v1(1)
//	u1 — v0(2), v1(5), v2(1)
//	u2 — v2(7)
//	u3 — (isolated)
//	v3   (isolated)
func testGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4, 4)
	b.Add(0, 0, 3)
	b.Add(0, 1, 1)
	b.Add(1, 0, 2)
	b.Add(1, 1, 5)
	b.Add(1, 2, 1)
	b.Add(2, 2, 7)
	return b.Build()
}

func TestBuildCounts(t *testing.T) {
	g := testGraph(t)
	if got, want := g.NumUsers(), 4; got != want {
		t.Errorf("NumUsers = %d, want %d", got, want)
	}
	if got, want := g.NumItems(), 4; got != want {
		t.Errorf("NumItems = %d, want %d", got, want)
	}
	if got, want := g.LiveEdges(), 6; got != want {
		t.Errorf("LiveEdges = %d, want %d", got, want)
	}
	if got, want := g.LiveClicks(), uint64(19); got != want {
		t.Errorf("LiveClicks = %d, want %d", got, want)
	}
}

func TestBuildMergesDuplicates(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Add(0, 0, 2)
	b.Add(0, 0, 3)
	b.Add(0, 0, 1)
	g := b.Build()
	if got, want := g.LiveEdges(), 1; got != want {
		t.Fatalf("LiveEdges = %d, want %d", got, want)
	}
	if got, want := g.Weight(0, 0), uint32(6); got != want {
		t.Errorf("Weight(0,0) = %d, want %d", got, want)
	}
}

func TestBuildIgnoresZeroClicks(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Add(0, 0, 0)
	g := b.Build()
	if g.LiveEdges() != 0 {
		t.Errorf("LiveEdges = %d, want 0", g.LiveEdges())
	}
}

func TestBuilderGrowsOnLargeIDs(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Add(9, 5, 1)
	g := b.Build()
	if g.NumUsers() != 10 || g.NumItems() != 6 {
		t.Errorf("dims = (%d,%d), want (10,6)", g.NumUsers(), g.NumItems())
	}
}

func TestDegreesAndStrength(t *testing.T) {
	g := testGraph(t)
	cases := []struct {
		u        NodeID
		deg      int
		strength uint64
	}{
		{0, 2, 4}, {1, 3, 8}, {2, 1, 7}, {3, 0, 0},
	}
	for _, c := range cases {
		if got := g.UserDegree(c.u); got != c.deg {
			t.Errorf("UserDegree(%d) = %d, want %d", c.u, got, c.deg)
		}
		if got := g.UserStrength(c.u); got != c.strength {
			t.Errorf("UserStrength(%d) = %d, want %d", c.u, got, c.strength)
		}
	}
	if got, want := g.ItemDegree(0), 2; got != want {
		t.Errorf("ItemDegree(0) = %d, want %d", got, want)
	}
	if got, want := g.ItemStrength(2), uint64(8); got != want {
		t.Errorf("ItemStrength(2) = %d, want %d", got, want)
	}
}

func TestWeightAndHasEdge(t *testing.T) {
	g := testGraph(t)
	if got, want := g.Weight(1, 1), uint32(5); got != want {
		t.Errorf("Weight(1,1) = %d, want %d", got, want)
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) = true, want false")
	}
	if g.Weight(99, 0) != 0 || g.Weight(0, 99) != 0 {
		t.Error("out-of-range Weight should be 0")
	}
}

func TestRemoveUserUpdatesCounterpart(t *testing.T) {
	g := testGraph(t)
	g.RemoveUser(1)
	if g.UserAlive(1) {
		t.Fatal("user 1 still alive after removal")
	}
	if got, want := g.LiveUsers(), 3; got != want {
		t.Errorf("LiveUsers = %d, want %d", got, want)
	}
	if got, want := g.ItemDegree(0), 1; got != want {
		t.Errorf("ItemDegree(0) = %d, want %d", got, want)
	}
	if got, want := g.ItemStrength(1), uint64(1); got != want {
		t.Errorf("ItemStrength(1) = %d, want %d", got, want)
	}
	if got, want := g.LiveEdges(), 3; got != want {
		t.Errorf("LiveEdges = %d, want %d", got, want)
	}
	if got, want := g.LiveClicks(), uint64(11); got != want {
		t.Errorf("LiveClicks = %d, want %d", got, want)
	}
	// Edge queries to the dead user must be zero.
	if g.Weight(1, 1) != 0 {
		t.Error("Weight to dead user should be 0")
	}
}

func TestRemoveItemUpdatesCounterpart(t *testing.T) {
	g := testGraph(t)
	g.RemoveItem(2)
	if got, want := g.UserDegree(2), 0; got != want {
		t.Errorf("UserDegree(2) = %d, want %d", got, want)
	}
	if got, want := g.UserDegree(1), 2; got != want {
		t.Errorf("UserDegree(1) = %d, want %d", got, want)
	}
	if got, want := g.UserStrength(1), uint64(7); got != want {
		t.Errorf("UserStrength(1) = %d, want %d", got, want)
	}
}

func TestRemoveIsIdempotent(t *testing.T) {
	g := testGraph(t)
	g.RemoveUser(0)
	edges, clicks := g.LiveEdges(), g.LiveClicks()
	g.RemoveUser(0)
	if g.LiveEdges() != edges || g.LiveClicks() != clicks {
		t.Error("double removal changed edge accounting")
	}
}

func TestNeighborIterationSkipsDead(t *testing.T) {
	g := testGraph(t)
	g.RemoveItem(1)
	var got []NodeID
	g.EachUserNeighbor(1, func(v NodeID, _ uint32) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("neighbors of u1 after removing v1 = %v, want [0 2]", got)
	}
}

func TestNeighborEarlyStop(t *testing.T) {
	g := testGraph(t)
	n := 0
	g.EachUserNeighbor(1, func(NodeID, uint32) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early-stop iterated %d times, want 1", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := testGraph(t)
	c := g.Clone()
	c.RemoveUser(0)
	if !g.UserAlive(0) {
		t.Error("removal on clone affected original")
	}
	if got, want := g.LiveEdges(), 6; got != want {
		t.Errorf("original LiveEdges = %d, want %d", got, want)
	}
	if got, want := c.LiveEdges(), 4; got != want {
		t.Errorf("clone LiveEdges = %d, want %d", got, want)
	}
}

func TestClonePreservesDeletions(t *testing.T) {
	g := testGraph(t)
	g.RemoveItem(0)
	c := g.Clone()
	if c.ItemAlive(0) {
		t.Error("clone resurrected deleted item")
	}
	if c.LiveEdges() != g.LiveEdges() {
		t.Error("clone edge count differs")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := testGraph(t)
	edges := g.Edges()
	g2 := FromEdges(edges)
	if g2.LiveEdges() != g.LiveEdges() || g2.LiveClicks() != g.LiveClicks() {
		t.Errorf("FromEdges(Edges()) = %v, want same accounting as %v", g2, g)
	}
	for _, e := range edges {
		if g2.Weight(e.U, e.V) != e.Weight {
			t.Errorf("edge (%d,%d) weight %d not preserved", e.U, e.V, e.Weight)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := testGraph(t)
	sub, err := InducedSubgraph(g, []NodeID{0, 1}, []NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sub.LiveEdges(), 4; got != want {
		t.Errorf("LiveEdges = %d, want %d", got, want)
	}
	if sub.UserAlive(2) || sub.ItemAlive(2) {
		t.Error("vertices outside the induced sets should be dead")
	}
	if !g.UserAlive(2) {
		t.Error("InducedSubgraph mutated the source graph")
	}
}

func TestInducedSubgraphRejectsOutOfRange(t *testing.T) {
	g := testGraph(t)
	if _, err := InducedSubgraph(g, []NodeID{99}, nil); err == nil {
		t.Error("expected error for out-of-range user")
	}
	if _, err := InducedSubgraph(g, nil, []NodeID{99}); err == nil {
		t.Error("expected error for out-of-range item")
	}
}

func TestRemoveAllVertices(t *testing.T) {
	g := testGraph(t)
	for u := 0; u < g.NumUsers(); u++ {
		g.RemoveUser(NodeID(u))
	}
	if g.LiveEdges() != 0 || g.LiveClicks() != 0 || g.LiveUsers() != 0 {
		t.Errorf("after removing all users: %v", g)
	}
	for v := 0; v < g.NumItems(); v++ {
		if got := g.ItemDegree(NodeID(v)); got != 0 {
			t.Errorf("ItemDegree(%d) = %d after all users removed", v, got)
		}
	}
}

func TestRemovalEpochCountsEffectiveRemovals(t *testing.T) {
	g := testGraph(t)
	if g.RemovalEpoch() != 0 {
		t.Fatalf("fresh graph epoch = %d, want 0", g.RemovalEpoch())
	}
	g.RemoveUser(0)
	g.RemoveUser(0) // no-op must not bump the epoch
	g.RemoveItem(2)
	if got := g.RemovalEpoch(); got != 2 {
		t.Errorf("epoch = %d, want 2 (no-op removals excluded)", got)
	}

	// Clones inherit the epoch but advance independently.
	c := g.Clone()
	if c.RemovalEpoch() != g.RemovalEpoch() {
		t.Errorf("clone epoch = %d, want %d", c.RemovalEpoch(), g.RemovalEpoch())
	}
	c.RemoveUser(1)
	if c.RemovalEpoch() != 3 || g.RemovalEpoch() != 2 {
		t.Errorf("epochs entangled: clone=%d source=%d", c.RemovalEpoch(), g.RemovalEpoch())
	}
}
