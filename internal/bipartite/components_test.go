package bipartite

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// bfsComponents is the oracle ConnectedComponents is held to: a BFS from
// each live user not yet reached, in ascending order, over rows and
// columns alike, member lists sorted after the fact; then every live item
// no user reached as a singleton; then a stable sort, largest first.
func bfsComponents(g *Graph) []Component {
	uSeen := make([]bool, g.NumUsers())
	vSeen := make([]bool, g.NumItems())
	var comps []Component
	const itemBit = uint64(1) << 32
	g.EachLiveUser(func(start NodeID) bool {
		if uSeen[start] {
			return true
		}
		var comp Component
		uSeen[start] = true
		queue := []uint64{uint64(start)}
		for head := 0; head < len(queue); head++ {
			if cur := queue[head]; cur&itemBit == 0 {
				comp.Users = append(comp.Users, NodeID(cur))
				g.EachUserNeighbor(NodeID(cur), func(v NodeID, _ uint32) bool {
					if !vSeen[v] {
						vSeen[v] = true
						queue = append(queue, uint64(v)|itemBit)
					}
					return true
				})
			} else {
				comp.Items = append(comp.Items, NodeID(cur&^itemBit))
				g.EachItemNeighbor(NodeID(cur&^itemBit), func(u NodeID, _ uint32) bool {
					if !uSeen[u] {
						uSeen[u] = true
						queue = append(queue, uint64(u))
					}
					return true
				})
			}
		}
		slices.Sort(comp.Users)
		slices.Sort(comp.Items)
		comps = append(comps, comp)
		return true
	})
	g.EachLiveItem(func(v NodeID) bool {
		if !vSeen[v] {
			comps = append(comps, Component{Items: []NodeID{v}})
		}
		return true
	})
	slices.SortStableFunc(comps, func(a, b Component) int { return cmp.Compare(b.Size(), a.Size()) })
	return comps
}

// TestConnectedComponentsMatchesBFS: on random graphs with dead vertices,
// isolated users and isolated items, the union–find split returns exactly
// the BFS oracle's components — their order, their members' order, and nil
// where the oracle has nil.
func TestConnectedComponentsMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		nu, ni := 1+rng.Intn(60), 1+rng.Intn(40)
		b := NewBuilder(nu+rng.Intn(5), ni+rng.Intn(5)) // the extra IDs are isolated
		for e := rng.Intn(3 * (nu + ni)); e > 0; e-- {
			b.Add(NodeID(rng.Intn(nu)), NodeID(rng.Intn(ni)), 1)
		}
		g := b.Build()
		for u := 0; u < g.NumUsers(); u++ {
			if rng.Intn(3) == 0 {
				g.RemoveUser(NodeID(u))
			}
		}
		for v := 0; v < g.NumItems(); v++ {
			if rng.Intn(4) == 0 {
				g.RemoveItem(NodeID(v))
			}
		}
		// Twice: the second call runs on scratch the first one pooled.
		for range 2 {
			if got, want := ConnectedComponents(g), bfsComponents(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %v:\n got %+v\nwant %+v", trial, g, got, want)
			}
		}
	}
	if got := ConnectedComponents(NewGraph(0, 0)); got != nil {
		t.Fatalf("empty graph: %#v, want nil", got)
	}
}

func TestConnectedComponentsBasic(t *testing.T) {
	// One big component (u1—v2—u2 bridges everything) plus two isolated
	// vertices: {u0,u1,u2} × {v0,v1,v2}, u3 isolated, v3 isolated.
	g := testGraph(t)
	comps := ConnectedComponents(g)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %+v", len(comps), comps)
	}
	if !reflect.DeepEqual(comps[0].Users, []NodeID{0, 1, 2}) ||
		!reflect.DeepEqual(comps[0].Items, []NodeID{0, 1, 2}) {
		t.Errorf("largest component = %+v", comps[0])
	}
	// Components are ordered largest-first.
	for i := 1; i < len(comps); i++ {
		if comps[i].Size() > comps[i-1].Size() {
			t.Errorf("components not sorted by size: %d before %d",
				comps[i-1].Size(), comps[i].Size())
		}
	}
}

func TestConnectedComponentsAfterCut(t *testing.T) {
	g := testGraph(t)
	// u1—v2 is the bridge between {u0,u1,v0,v1} and {u2,v2}; removing v2
	// detaches u2 entirely.
	g.RemoveItem(2)
	comps := ConnectedComponents(g)
	// {u0,u1,v0,v1}, {u2}, {u3}, {v3}
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4: %+v", len(comps), comps)
	}
	if comps[0].Size() != 4 {
		t.Errorf("largest component size = %d, want 4", comps[0].Size())
	}
}

func TestConnectedComponentsEmptyGraph(t *testing.T) {
	g := NewGraph(0, 0)
	if comps := ConnectedComponents(g); len(comps) != 0 {
		t.Errorf("empty graph: got %d components", len(comps))
	}
}

func TestConnectedComponentsCoverAllVertices(t *testing.T) {
	g := testGraph(t)
	comps := ConnectedComponents(g)
	users, items := 0, 0
	for _, c := range comps {
		users += len(c.Users)
		items += len(c.Items)
	}
	if users != g.LiveUsers() || items != g.LiveItems() {
		t.Errorf("components cover %d users / %d items, want %d / %d",
			users, items, g.LiveUsers(), g.LiveItems())
	}
}

func TestConnectedComponentsIgnoreDead(t *testing.T) {
	g := testGraph(t)
	g.RemoveUser(3)
	g.RemoveItem(3)
	comps := ConnectedComponents(g)
	for _, c := range comps {
		for _, u := range c.Users {
			if u == 3 {
				t.Error("dead user 3 appeared in a component")
			}
		}
		for _, v := range c.Items {
			if v == 3 {
				t.Error("dead item 3 appeared in a component")
			}
		}
	}
}
