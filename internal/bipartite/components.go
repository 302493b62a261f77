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
// g, largest first, then by smallest user; isolated vertices (live degree
// 0) form singleton components, isolated items last. Member lists ascend.
func ConnectedComponents(g *Graph) []Component {
	sc := splitPool.Get().(*splitScratch)
	defer splitPool.Put(sc)
	return sc.components(g, g.uAlive, g.vAlive)
}

// ComponentsOf returns ConnectedComponents of the subgraph of g induced by
// users and items, without building it: the same components, in the same
// order, as ConnectedComponents(InducedSubgraph(g, users, items)). IDs may
// repeat; dead IDs are ignored. An ID out of range panics.
func ComponentsOf(g *Graph, users, items []NodeID) []Component {
	sc := splitPool.Get().(*splitScratch)
	// A panic while marking drops sc instead of pooling half-set flags.
	inU, inV := markLive(&sc.inU, g.uAlive, users), markLive(&sc.inV, g.vAlive, items)
	defer func() {
		clear(inU)
		clear(inV)
		splitPool.Put(sc)
	}()
	return sc.components(g, inU, inV)
}

// markLive grows *flags to len(alive), all clear, and sets the flag of every
// id that is alive.
func markLive(flags *[]bool, alive []bool, ids []NodeID) []bool {
	if len(*flags) < len(alive) {
		*flags = make([]bool, len(alive))
	}
	f := (*flags)[:len(alive)]
	for _, id := range ids {
		f[id] = alive[id]
	}
	return f
}

// components is the one component split: the connected components of the
// users and items flagged in inU/inV, which must be live, over the arcs
// between them, in ConnectedComponents' order.
//
// It is a union–find over the member users' rows (items after users in one
// parent array) whose unions keep the smaller index as root, so a
// component with a user is rooted at its smallest user: ascending scans of
// the users, then the items, number the components in the order a BFS
// from each unreached user finds them and fill every list sorted.
func (sc *splitScratch) components(g *Graph, inU, inV []bool) []Component {
	nu := g.NumUsers()
	sc.parent, sc.id = grow(sc.parent, nu+g.NumItems()), grow(sc.id, nu)
	parent, id := sc.parent, sc.id
	for x := range parent {
		parent[x] = int32(x)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u, row := range g.uAdj {
		if !inU[u] {
			continue
		}
		r := int32(u) // u is a singleton until its own row is read
		for _, a := range row {
			if !inV[a.To] {
				continue
			}
			if rv := find(int32(nu) + int32(a.To)); rv < r {
				parent[r], r = rv, rv
			} else {
				parent[rv] = r
			}
		}
	}

	// Number the components in the order their roots appear and count
	// their members; every user component exists before the item scan
	// starts, so the components of isolated items come after all of them.
	sizes := sc.sizes[:0] // users, then items, of component k at 2k and 2k+1
	users, items, isolated := 0, 0, 0
	for u, in := range inU {
		if !in {
			continue
		}
		r := find(int32(u))
		if r == int32(u) {
			id[u] = int32(len(sizes) / 2)
			sizes = append(sizes, 0, 0)
		}
		sizes[2*id[r]]++
		users++
	}
	for v, in := range inV {
		if !in {
			continue
		}
		if r := find(int32(nu + v)); r < int32(nu) {
			sizes[2*id[r]+1]++
		} else {
			isolated++
		}
		items++
	}
	sc.sizes = sizes

	// Cut every member list from one exact-size slab per side, capped so
	// that an append to one list cannot reach the next.
	uSlab, vSlab := make([]NodeID, users), make([]NodeID, items)
	cut := func(slab []NodeID, lo *int, n int32) []NodeID {
		if n == 0 {
			return nil
		}
		s := slab[*lo : *lo : *lo+int(n)]
		*lo += int(n)
		return s
	}
	var comps []Component
	if n := len(sizes) / 2; n+isolated > 0 {
		comps = make([]Component, n, n+isolated)
	}
	uLo, vLo := 0, 0
	for k := range comps {
		comps[k] = Component{Users: cut(uSlab, &uLo, sizes[2*k]), Items: cut(vSlab, &vLo, sizes[2*k+1])}
	}
	for u, in := range inU {
		if in {
			c := &comps[id[find(int32(u))]]
			c.Users = append(c.Users, NodeID(u))
		}
	}
	for v, in := range inV {
		if !in {
			continue
		}
		if r := find(int32(nu + v)); r < int32(nu) {
			c := &comps[id[r]]
			c.Items = append(c.Items, NodeID(v))
		} else {
			c := Component{Items: cut(vSlab, &vLo, 1)}
			c.Items = append(c.Items, NodeID(v))
			comps = append(comps, c)
		}
	}

	slices.SortStableFunc(comps, func(a, b Component) int { return cmp.Compare(b.Size(), a.Size()) })
	return comps
}

// splitScratch is the split's parent array, component numbers and member
// counts, and ComponentsOf's membership flags (all clear between calls),
// leased from splitPool. The member lists a Component keeps are cut from
// slabs allocated fresh per split and never pooled: groups built from them
// outlive the detection.
type splitScratch struct {
	parent, id, sizes []int32
	inU, inV          []bool
}

var splitPool = sync.Pool{New: func() any { return new(splitScratch) }}

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
// The compact graph starts at removal epoch 0, and the shard's removals
// reach g (bumping g's epoch) only when the merger replays them through
// g.RemoveUser/RemoveItem. Its rows and liveness live in an arena leased
// from compactArenas, grown to the largest component met, which Release
// hands back; userOf and itemOf are comp's own lists.
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

	c = &Graph{liveUsers: len(userOf), liveItems: len(itemOf)}
	a := leaseArena(&compactArenas, c, len(userOf), len(itemOf))
	for i := range c.uAlive {
		c.uAlive[i] = true
	}
	for i := range c.vAlive {
		c.vAlive[i] = true
	}
	clear(c.uStrength)
	clear(c.vStrength)
	clear(c.vDeg)
	a.uAdj, a.vAdj = grow(a.uAdj, len(userOf)), grow(a.vAdj, len(itemOf))
	c.uAdj, c.vAdj = a.uAdj, a.vAdj
	arcs := 0
	for _, u := range userOf {
		arcs += g.UserDegree(u)
	}
	a.rows = grow(a.rows, arcs)
	rows := a.rows
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
	a.cols = grow(a.cols, w)
	cols := a.cols
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
