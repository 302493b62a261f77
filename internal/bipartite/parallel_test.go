package bipartite

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomEdges returns a seeded multiset of edges with deliberate duplicates,
// so duplicate-merging is exercised on every run.
func randomEdges(seed int64, n, users, items int) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{
			U:      NodeID(rng.Intn(users)),
			V:      NodeID(rng.Intn(items)),
			Weight: uint32(1 + rng.Intn(9)),
		})
	}
	return edges
}

// graphsEqual compares every observable of two graphs: sizes, totals,
// degrees, strengths, and both adjacency directions including weights.
func graphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumUsers() != want.NumUsers() || got.NumItems() != want.NumItems() {
		t.Fatalf("sizes %d/%d, want %d/%d", got.NumUsers(), got.NumItems(), want.NumUsers(), want.NumItems())
	}
	if got.LiveEdges() != want.LiveEdges() || got.LiveClicks() != want.LiveClicks() {
		t.Fatalf("edges/clicks %d/%d, want %d/%d", got.LiveEdges(), got.LiveClicks(), want.LiveEdges(), want.LiveClicks())
	}
	for u := 0; u < want.NumUsers(); u++ {
		id := NodeID(u)
		if got.UserDegree(id) != want.UserDegree(id) || got.UserStrength(id) != want.UserStrength(id) {
			t.Fatalf("user %d degree/strength diverge", u)
		}
		if !reflect.DeepEqual(got.UserNeighbors(id), want.UserNeighbors(id)) {
			t.Fatalf("user %d adjacency diverges:\n got %v\nwant %v", u, got.UserNeighbors(id), want.UserNeighbors(id))
		}
	}
	for v := 0; v < want.NumItems(); v++ {
		id := NodeID(v)
		if got.ItemDegree(id) != want.ItemDegree(id) || got.ItemStrength(id) != want.ItemStrength(id) {
			t.Fatalf("item %d degree/strength diverge", v)
		}
		if !reflect.DeepEqual(got.ItemNeighbors(id), want.ItemNeighbors(id)) {
			t.Fatalf("item %d adjacency diverges:\n got %v\nwant %v", v, got.ItemNeighbors(id), want.ItemNeighbors(id))
		}
	}
}

// BuildSerial is the reference implementation of Build — sort every record
// by (user, item), merge neighbours, append arc by arc — the oracle the
// counting build is tested against.
func (b *Builder) BuildSerial() *Graph {
	// Sort by (U, V) so duplicates are adjacent and adjacency ends up sorted.
	edges := make([]Edge, len(b.users))
	for i := range edges {
		edges[i] = Edge{U: b.users[i], V: b.items[i], Weight: b.weights[i]}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})

	g := NewGraph(b.numUsers, b.numItems)
	var merged []Edge
	for i := 0; i < len(edges); {
		e := edges[i]
		j := i + 1
		for j < len(edges) && edges[j].U == e.U && edges[j].V == e.V {
			e.Weight = satAdd32(e.Weight, edges[j].Weight)
			j++
		}
		merged = append(merged, e)
		i = j
	}

	for _, e := range merged {
		g.uAdj[e.U] = append(g.uAdj[e.U], Arc{To: e.V, Weight: e.Weight})
		g.uDeg[e.U]++
		g.uStrength[e.U] += uint64(e.Weight)
		g.vDeg[e.V]++
		g.vStrength[e.V] += uint64(e.Weight)
		g.liveEdges++
		g.liveClick += uint64(e.Weight)
	}
	// Item adjacency: bucket by item, already in user order because merged
	// is sorted by (U, V).
	for _, e := range merged {
		g.vAdj[e.V] = append(g.vAdj[e.V], Arc{To: e.U, Weight: e.Weight})
	}
	return g
}

// TestBuildMatchesSerial pins the counting build against the sort-everything
// reference on every input shape that takes a different path through it.
func TestBuildMatchesSerial(t *testing.T) {
	cases := map[string]func(b *Builder){
		"empty": func(b *Builder) {},
		"random with duplicates": func(b *Builder) {
			b.AddEdges(randomEdges(1, 30000, 900, 250))
		},
		"heavy duplication": func(b *Builder) {
			// 20k records over 60 pairs: rows shrink by orders of magnitude.
			b.AddEdges(randomEdges(2, 20000, 6, 10))
		},
		"one pair many times": func(b *Builder) {
			for i := 0; i < 100; i++ {
				b.Add(3, 5, 2)
			}
		},
		"zero-click rows": func(b *Builder) {
			for _, e := range randomEdges(3, 5000, 300, 80) {
				b.Add(e.U, e.V, e.Weight%3) // a third of the rows carry no click
			}
		},
		"gaps between IDs": func(b *Builder) {
			// Only every 7th user and every 5th item has a record.
			for _, e := range randomEdges(4, 4000, 200, 60) {
				b.Add(e.U*7, e.V*5, e.Weight)
			}
		},
		"already aggregated": func(b *Builder) {
			for u := NodeID(0); u < 50; u++ {
				for v := u % 3; v < 40; v += 3 {
					b.Add(u, v, 1+u+v)
				}
			}
		},
	}
	for name, fill := range cases {
		t.Run(name, func(t *testing.T) {
			// A hint below the IDs that arrive: Add must grow the graph.
			got, ref := NewBuilder(2, 2), NewBuilder(2, 2)
			fill(got)
			fill(ref)
			graphsEqual(t, got.Build(), ref.BuildSerial())
		})
	}
	if g := NewBuilder(0, 0).Build(); g.NumUsers() != 0 || g.LiveEdges() != 0 {
		t.Fatalf("empty build: %v", g)
	}
	b := NewBuilder(0, 0)
	for i := 0; i < 100; i++ {
		b.Add(3, 5, 2)
	}
	if g := b.Build(); g.LiveEdges() != 1 || g.Weight(3, 5) != 200 {
		t.Fatalf("duplicate merge: edges=%d w=%d, want 1/200", g.LiveEdges(), g.Weight(3, 5))
	}
}

// TestBuildReusedBuilder: Build leaves the builder usable — building twice
// gives equal graphs that share no storage, and records added in between
// show up in the second graph only.
func TestBuildReusedBuilder(t *testing.T) {
	edges := randomEdges(5, 6000, 150, 40)
	b := NewBuilder(0, 0)
	b.AddEdges(edges[:4000])
	first := b.Build()
	again := b.Build()
	graphsEqual(t, again, first)
	again.uAdj[edges[0].U][0].Weight++
	if reflect.DeepEqual(again.UserNeighbors(edges[0].U), first.UserNeighbors(edges[0].U)) {
		t.Fatal("two builds of one builder share adjacency storage")
	}

	b.AddEdges(edges[4000:])
	ref := NewBuilder(0, 0)
	ref.AddEdges(edges)
	graphsEqual(t, b.Build(), ref.BuildSerial())
	ref4k := NewBuilder(0, 0)
	ref4k.AddEdges(edges[:4000])
	graphsEqual(t, first, ref4k.BuildSerial())
}

// TestDuplicateWeightsSaturate: every way of folding two records of one
// pair into one edge caps at MaxUint32 instead of wrapping — Build,
// BuildSerial, and the stream path's PatchGraph from an empty graph.
func TestDuplicateWeightsSaturate(t *testing.T) {
	fill := func() *Builder {
		b := NewBuilder(0, 0)
		b.Add(1, 1, math.MaxUint32-1)
		b.Add(1, 1, 5)
		return b
	}
	graphs := map[string]*Graph{
		"Build":       fill().Build(),
		"BuildSerial": fill().BuildSerial(),
		"PatchGraph": PatchGraph(PatchGraph(NewGraph(0, 0),
			[]Edge{{U: 1, V: 1, Weight: math.MaxUint32 - 1}}), []Edge{{U: 1, V: 1, Weight: 5}}),
	}
	for name, g := range graphs {
		if w := g.Weight(1, 1); w != math.MaxUint32 {
			t.Errorf("%s: weight %d, want MaxUint32", name, w)
		}
		if g.UserStrength(1) != math.MaxUint32 || g.ItemStrength(1) != math.MaxUint32 || g.LiveClicks() != math.MaxUint32 {
			t.Errorf("%s: strengths %d/%d, clicks %d, want MaxUint32 each",
				name, g.UserStrength(1), g.ItemStrength(1), g.LiveClicks())
		}
	}
	graphsEqual(t, graphs["Build"], graphs["BuildSerial"])
	graphsEqual(t, graphs["PatchGraph"], graphs["BuildSerial"])
}

func TestCompactComponentPreservesStructure(t *testing.T) {
	// Two separated blocks plus noise; prune one user so liveness filtering
	// is exercised, then compact each component and verify it mirrors the
	// original component exactly under the ID mappings.
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

	comps := ConnectedComponents(g)
	var nonTrivial int
	for _, comp := range comps {
		if len(comp.Users) == 0 {
			continue
		}
		nonTrivial++
		c, userOf, itemOf := CompactComponent(g, comp)
		if c.NumUsers() != len(comp.Users) || c.NumItems() != len(comp.Items) {
			t.Fatalf("compact sizes %d/%d, want %d/%d", c.NumUsers(), c.NumItems(), len(comp.Users), len(comp.Items))
		}
		totalEdges := 0
		for lu, u := range userOf {
			if c.UserDegree(NodeID(lu)) != g.UserDegree(u) {
				t.Fatalf("user %d compact degree %d, original %d", u, c.UserDegree(NodeID(lu)), g.UserDegree(u))
			}
			if c.UserStrength(NodeID(lu)) != g.UserStrength(u) {
				t.Fatalf("user %d strength diverges", u)
			}
			got := c.UserNeighbors(NodeID(lu))
			want := g.UserNeighbors(u)
			if len(got) != len(want) {
				t.Fatalf("user %d adjacency length diverges", u)
			}
			for i := range got {
				if itemOf[got[i].To] != want[i].To || got[i].Weight != want[i].Weight {
					t.Fatalf("user %d arc %d maps to (%d,%d), want (%d,%d)",
						u, i, itemOf[got[i].To], got[i].Weight, want[i].To, want[i].Weight)
				}
			}
			totalEdges += len(got)
		}
		for lv, v := range itemOf {
			if c.ItemDegree(NodeID(lv)) != g.ItemDegree(v) || c.ItemStrength(NodeID(lv)) != g.ItemStrength(v) {
				t.Fatalf("item %d degree/strength diverge", v)
			}
			got := c.ItemNeighbors(NodeID(lv))
			want := g.ItemNeighbors(v)
			for i := range got {
				if userOf[got[i].To] != want[i].To || got[i].Weight != want[i].Weight {
					t.Fatalf("item %d adjacency diverges", v)
				}
			}
		}
		if totalEdges != c.LiveEdges() {
			t.Fatalf("edge total %d, graph reports %d", totalEdges, c.LiveEdges())
		}
	}
	if nonTrivial < 2 {
		t.Fatalf("expected ≥ 2 user-bearing components, got %d", nonTrivial)
	}
}

func TestCompactComponentAgreesWithCompact(t *testing.T) {
	// On a single-component graph, CompactComponent must reproduce the
	// Builder-based Compact exactly.
	b := NewBuilder(0, 0)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		b.Add(NodeID(rng.Intn(15)), NodeID(rng.Intn(12)), uint32(1+rng.Intn(4)))
	}
	g := b.Build()
	g.RemoveUser(3)
	g.RemoveItem(8)

	comps := ConnectedComponents(g)
	if len(comps) != 1 {
		t.Skipf("graph split into %d components; test wants 1", len(comps))
	}
	want, wantUsers, wantItems := Compact(g)
	got, gotUsers, gotItems := CompactComponent(g, comps[0])
	if !reflect.DeepEqual(gotUsers, wantUsers) || !reflect.DeepEqual(gotItems, wantItems) {
		t.Fatal("ID mappings diverge from Compact")
	}
	graphsEqual(t, got, want)
}
