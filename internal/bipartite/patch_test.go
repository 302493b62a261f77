package bipartite

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// satAggregate is the test-side oracle for aggregated edge lists: sort by
// (U, V) and merge duplicates with saturating addition — the semantics
// clicktable.Aggregate applies before any graph is built, and therefore
// the semantics PatchGraph must reproduce.
func satAggregate(edges []Edge) []Edge {
	sorted := append([]Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].U != sorted[j].U {
			return sorted[i].U < sorted[j].U
		}
		return sorted[i].V < sorted[j].V
	})
	var out []Edge
	for i := 0; i < len(sorted); {
		e := sorted[i]
		sum := uint64(e.Weight)
		j := i + 1
		for j < len(sorted) && sorted[j].U == e.U && sorted[j].V == e.V {
			sum += uint64(sorted[j].Weight)
			j++
		}
		if sum > math.MaxUint32 {
			sum = math.MaxUint32
		}
		e.Weight = uint32(sum)
		if e.Weight > 0 {
			out = append(out, e)
		}
		i = j
	}
	return out
}

// checkPatchOracle builds base from baseEdges, patches the aggregated
// delta on, and compares against a from-scratch build over the combined
// history.
func checkPatchOracle(t *testing.T, baseEdges, deltaEdges []Edge) {
	t.Helper()
	baseAgg := satAggregate(baseEdges)
	base := FromEdges(baseAgg)
	before := base.Edges()
	delta := satAggregate(deltaEdges)

	got := PatchGraph(base, delta)
	want := FromEdges(satAggregate(append(append([]Edge(nil), baseAgg...), delta...)))
	if d := graphDiff(got, want); d != "" {
		t.Fatal(d)
	}
	// The base is copy-on-write input, never mutated — not even the rows
	// the patch rewrote (Clone shares adjacency, so an in-place rewrite
	// would corrupt every outstanding snapshot).
	after := base.Edges()
	if len(before) != len(after) {
		t.Fatalf("patch mutated base: %d edges before, %d after", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("patch mutated base edge %d: %+v -> %+v", i, before[i], after[i])
		}
	}
}

func TestPatchGraphHandCases(t *testing.T) {
	cases := []struct {
		name  string
		base  []Edge
		delta []Edge
	}{
		{"merge existing edge", []Edge{{1, 2, 3}, {1, 5, 1}, {4, 2, 7}}, []Edge{{1, 2, 10}}},
		{"splice new edges into existing row", []Edge{{1, 2, 3}, {1, 9, 1}}, []Edge{{1, 1, 4}, {1, 5, 2}, {1, 12, 8}}},
		{"new user beyond range", []Edge{{0, 0, 1}}, []Edge{{7, 3, 2}}},
		{"new item beyond range", []Edge{{0, 0, 1}}, []Edge{{0, 9, 2}}},
		{"disjoint delta", []Edge{{1, 1, 1}, {2, 2, 2}}, []Edge{{3, 3, 3}, {4, 4, 4}}},
		{"saturating merge", []Edge{{1, 1, math.MaxUint32 - 1}}, []Edge{{1, 1, 5}}},
		{"saturated base stays saturated", []Edge{{1, 1, math.MaxUint32}}, []Edge{{1, 1, 1}}},
		{"empty base", nil, []Edge{{2, 3, 4}}},
		{"user with no base edges", []Edge{{5, 5, 5}}, []Edge{{2, 1, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkPatchOracle(t, tc.base, tc.delta)
		})
	}
}

func TestPatchGraphEmptyDeltaReturnsBase(t *testing.T) {
	base := FromEdges([]Edge{{1, 2, 3}})
	if got := PatchGraph(base, nil); got != base {
		t.Error("empty delta must return the base graph unchanged")
	}
}

func TestPatchGraphRejectsBadInput(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	base := FromEdges([]Edge{{1, 2, 3}, {4, 5, 6}})
	mustPanic("unsorted delta", func() {
		PatchGraph(base, []Edge{{2, 1, 1}, {1, 1, 1}})
	})
	mustPanic("duplicate delta pair", func() {
		PatchGraph(base, []Edge{{1, 1, 1}, {1, 1, 2}})
	})
	mustPanic("zero-weight delta edge", func() {
		PatchGraph(base, []Edge{{1, 1, 0}})
	})
	pruned := base.Clone()
	pruned.RemoveUser(1)
	mustPanic("pruned base", func() {
		PatchGraph(pruned, []Edge{{2, 2, 1}})
	})
}

// TestPatchGraphChain patches repeatedly — each result is the next base —
// mirroring how the streaming detector chains patches between compactions.
func TestPatchGraphChain(t *testing.T) {
	var history []Edge
	g := FromEdges(nil)
	for step := 0; step < 12; step++ {
		var delta []Edge
		for k := 0; k < 5; k++ {
			delta = append(delta, Edge{
				U:      NodeID((step*13 + k*7) % 40),
				V:      NodeID((step*5 + k*11) % 25),
				Weight: uint32(step + k + 1),
			})
		}
		agg := satAggregate(delta)
		g = PatchGraph(g, agg)
		history = append(history, agg...)
		if d := graphDiff(g, FromEdges(satAggregate(history))); d != "" {
			t.Fatalf("step %d: %s", step, d)
		}
	}
}

// FuzzGraphPatch decodes a byte string into a base history and a delta,
// then demands PatchGraph produce a graph byte-identical to building the
// combined history from scratch.
func FuzzGraphPatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 0, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add(bytes.Repeat([]byte{7, 3, 250, 9}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each 4-byte chunk is one edge: user, item, weight-ish, routing.
		// The routing byte sends the edge to the base or the delta; small
		// moduli force collisions so merges actually happen, and weights
		// near MaxUint32 exercise saturation.
		var baseEdges, deltaEdges []Edge
		for i := 0; i+4 <= len(data); i += 4 {
			w := uint32(data[i+2])
			if w%5 == 0 {
				w = math.MaxUint32 - uint32(data[i+2])
			}
			e := Edge{U: NodeID(data[i] % 16), V: NodeID(data[i+1] % 16), Weight: w}
			if data[i+3]%3 == 0 {
				deltaEdges = append(deltaEdges, e)
			} else {
				baseEdges = append(baseEdges, e)
			}
		}
		checkPatchOracle(t, baseEdges, deltaEdges)
	})
}

// TestPatchWeightMergeProperty is the quick.Check law for duplicate-edge
// weight merging: however a pair's click history is split between the base
// and the delta, the patched edge weight is the saturated sum of the whole
// history — saturating addition composes, so patching aggregates of
// aggregates loses nothing.
func TestPatchWeightMergeProperty(t *testing.T) {
	property := func(baseWeights, deltaWeights []uint32) bool {
		var base, delta []Edge
		var total uint64
		for _, w := range baseWeights {
			if w == 0 {
				continue
			}
			base = append(base, Edge{U: 1, V: 1, Weight: w})
			total += uint64(w)
		}
		for _, w := range deltaWeights {
			if w == 0 {
				continue
			}
			delta = append(delta, Edge{U: 1, V: 1, Weight: w})
			total += uint64(w)
		}
		if len(delta) == 0 {
			return true
		}
		g := PatchGraph(FromEdges(satAggregate(base)), satAggregate(delta))
		want := total
		if want > math.MaxUint32 {
			want = math.MaxUint32
		}
		return g.Weight(1, 1) == uint32(want) && g.LiveClicks() == want
	}
	if err := quick.Check(property, seeded(100)); err != nil {
		t.Error(err)
	}
}
