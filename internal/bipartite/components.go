package bipartite

import (
	"cmp"
	"slices"
	"sync"
)

// Component is a connected set of live users and items.
type Component struct {
	Users []NodeID
	Items []NodeID
}

// Size returns the total number of vertices in the component.
func (c Component) Size() int { return len(c.Users) + len(c.Items) }

// ConnectedComponents returns the connected components of the live part of
// g, largest first. Isolated vertices (live degree 0) form singleton
// components and are included.
func ConnectedComponents(g *Graph) []Component {
	sc := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(sc)
	uSeen := slices.Grow(sc.uSeen[:0], g.NumUsers())[:g.NumUsers()]
	vSeen := slices.Grow(sc.vSeen[:0], g.NumItems())[:g.NumItems()]
	sc.uSeen, sc.vSeen = uSeen, vSeen
	clear(uSeen)
	clear(vSeen)
	var comps []Component

	// BFS queue entries encode side in the high bit of a uint64 to avoid
	// allocating a struct per frontier entry.
	const itemBit = uint64(1) << 32

	bfs := func(startUser NodeID) Component {
		var comp Component
		queue := append(sc.queue[:0], uint64(startUser))
		uSeen[startUser] = true
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			if cur&itemBit == 0 {
				u := NodeID(cur)
				comp.Users = append(comp.Users, u)
				g.EachUserNeighbor(u, func(v NodeID, _ uint32) bool {
					if !vSeen[v] {
						vSeen[v] = true
						queue = append(queue, uint64(v)|itemBit)
					}
					return true
				})
			} else {
				v := NodeID(cur &^ itemBit)
				comp.Items = append(comp.Items, v)
				g.EachItemNeighbor(v, func(u NodeID, _ uint32) bool {
					if !uSeen[u] {
						uSeen[u] = true
						queue = append(queue, uint64(u))
					}
					return true
				})
			}
		}
		sc.queue = queue
		slices.Sort(comp.Users)
		slices.Sort(comp.Items)
		return comp
	}

	g.EachLiveUser(func(u NodeID) bool {
		if !uSeen[u] {
			comps = append(comps, bfs(u))
		}
		return true
	})
	// Items unreachable from any user (isolated items).
	g.EachLiveItem(func(v NodeID) bool {
		if !vSeen[v] {
			vSeen[v] = true
			comps = append(comps, Component{Items: []NodeID{v}})
		}
		return true
	})

	slices.SortStableFunc(comps, func(a, b Component) int { return cmp.Compare(b.Size(), a.Size()) })
	return comps
}

// bfsScratch is ConnectedComponents' seen flags and BFS queue, leased from
// bfsPool; the member lists a Component keeps are always fresh.
type bfsScratch struct {
	uSeen, vSeen []bool
	queue        []uint64
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// itemIndexPool lends CompactComponent its dense original→local item
// index, sized to the source graph's items. Entries are never cleared: a
// read counts only when it round-trips through the component's own itemOf,
// so an entry left by an earlier component is rejected, not trusted. Pooling
// keeps a residual that shatters into thousands of components from paying
// NumItems per component.
var itemIndexPool = sync.Pool{New: func() any { return new([]NodeID) }}

// CompactComponent builds a standalone compact graph containing exactly the
// vertices of comp, which must be closed under live adjacency in g — e.g. an
// element of ConnectedComponents(g). It returns the compact graph and the
// local→original ID mappings for both sides. A live neighbour outside comp
// panics.
//
// Local IDs are assigned by position in comp.Users/comp.Items (both sorted
// ascending), so userOf and itemOf are strictly increasing: ID comparisons,
// and therefore every ID-ordered traversal, agree between the compact graph
// and g. The cost is the component's own arcs plus its vertex count — no
// Builder round-trip, no whole-graph scan, no hashing — which is what the
// sharded pruning path relies on: the user rows are read through a pooled
// dense item index into one arc slab, and the item rows are their transpose
// (filled in ascending local user order, so already sorted), with each
// item's transposed degree checked against its live degree in g.
//
// The compact graph starts at removal epoch 0 with no removal observer:
// incremental passes attach their own per-shard observer to c, and the
// shard's removals reach g (bumping g's epoch) only when the merger replays
// them through g.RemoveUser/RemoveItem.
func CompactComponent(g *Graph, comp Component) (c *Graph, userOf, itemOf []NodeID) {
	userOf, itemOf = comp.Users, comp.Items
	idxp := itemIndexPool.Get().(*[]NodeID)
	defer itemIndexPool.Put(idxp)
	if len(*idxp) < g.NumItems() {
		*idxp = make([]NodeID, g.NumItems())
	}
	localV := *idxp
	for lv, v := range itemOf {
		localV[v] = NodeID(lv)
	}

	c = NewGraph(len(userOf), len(itemOf))
	arcs := 0
	for _, u := range userOf {
		arcs += g.UserDegree(u)
	}
	rows := make([]Arc, arcs)
	w := 0
	for lu, u := range userOf {
		start := w
		if g.UserAlive(u) {
			for _, a := range g.uAdj[u] {
				if !g.vAlive[a.To] {
					continue
				}
				lv := localV[a.To]
				if int(lv) >= len(itemOf) || itemOf[lv] != a.To {
					panic("bipartite: CompactComponent: neighbor outside component")
				}
				// uAdj ascends by original item ID and localV is monotone
				// on comp, so the row stays sorted by To.
				rows[w] = Arc{To: lv, Weight: a.Weight}
				w++
				c.uStrength[lu] += uint64(a.Weight)
				c.vStrength[lv] += uint64(a.Weight)
				c.vDeg[lv]++
				c.liveClick += uint64(a.Weight)
			}
		}
		c.uAdj[lu] = rows[start:w:w]
		c.uDeg[lu] = int32(w - start)
	}
	c.liveEdges = w

	// Item rows: the transpose of the user rows. An item whose live degree
	// in g exceeds the arcs its component's users gave it has a live
	// neighbour outside comp.
	cols := make([]Arc, w)
	w = 0
	for lv, v := range itemOf {
		d := int(c.vDeg[lv])
		if d != g.ItemDegree(v) {
			panic("bipartite: CompactComponent: neighbor outside component")
		}
		c.vAdj[lv] = cols[w : w : w+d]
		w += d
	}
	for lu, row := range c.uAdj {
		for _, a := range row {
			c.vAdj[a.To] = append(c.vAdj[a.To], Arc{To: NodeID(lu), Weight: a.Weight})
		}
	}
	return c, userOf, itemOf
}
