package bipartite

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

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
			_, edges := randomGraph(1, 900, 250, 30000)
			b.AddEdges(edges)
		},
		"heavy duplication": func(b *Builder) {
			// 20k records over at most 60 pairs: rows shrink by orders of magnitude.
			_, edges := randomGraph(2, 6, 10, 20000)
			b.AddEdges(edges)
		},
		"one pair many times": func(b *Builder) {
			for i := 0; i < 100; i++ {
				b.Add(3, 5, 2)
			}
		},
		"zero-click rows": func(b *Builder) {
			_, edges := randomGraph(3, 300, 80, 5000)
			for _, e := range edges {
				b.Add(e.U, e.V, e.Weight%3) // a third of the rows carry no click
			}
		},
		"gaps between IDs": func(b *Builder) {
			// Only every 7th user and every 5th item has a record.
			_, edges := randomGraph(4, 200, 60, 4000)
			for _, e := range edges {
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
			if d := graphDiff(got.Build(), ref.BuildSerial()); d != "" {
				t.Fatal(d)
			}
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
	_, edges := randomGraph(5, 150, 40, 6000)
	b := NewBuilder(0, 0)
	b.AddEdges(edges[:4000])
	first := b.Build()
	again := b.Build()
	if d := graphDiff(again, first); d != "" {
		t.Fatal(d)
	}
	again.uAdj[edges[0].U][0].Weight++
	if reflect.DeepEqual(again.UserNeighbors(edges[0].U), first.UserNeighbors(edges[0].U)) {
		t.Fatal("two builds of one builder share adjacency storage")
	}

	b.AddEdges(edges[4000:])
	ref := NewBuilder(0, 0)
	ref.AddEdges(edges)
	if d := graphDiff(b.Build(), ref.BuildSerial()); d != "" {
		t.Fatal(d)
	}
	ref4k := NewBuilder(0, 0)
	ref4k.AddEdges(edges[:4000])
	if d := graphDiff(first, ref4k.BuildSerial()); d != "" {
		t.Fatal(d)
	}
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
	for _, name := range []string{"Build", "PatchGraph"} {
		if d := graphDiff(graphs[name], graphs["BuildSerial"]); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
}
