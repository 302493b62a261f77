package core

import (
	"repro/internal/bipartite"
	"repro/internal/detect"
)

// GroupStats are the forensic numbers a business expert reviews before
// punishing a detected group (the "easy of use for end-users" goal of
// desired property 4): how dense the block is, how hard the targets were
// hammered, and how isolated the group's items are from organic traffic.
type GroupStats struct {
	Users int
	Items int

	// Edges and Density describe the in-group block: Density is
	// Edges / (Users × Items) — 1.0 is a perfect biclique.
	Edges   int
	Density float64

	// FakeClicks is the total in-group click weight; MeanEdgeClicks its
	// mean per edge (crowd workers hammer targets, so this runs far above
	// the marketplace's per-edge average).
	FakeClicks     uint64
	MeanEdgeClicks float64

	// OutsideShare is the fraction of the items' total clicks that come
	// from OUTSIDE the group's users — low for freshly attacked targets
	// (Table V: few organic clickers), high for innocently popular items.
	OutsideShare float64
}

// ComputeGroupStats measures grp against the full click graph.
func ComputeGroupStats(g *bipartite.Graph, grp detect.Group) GroupStats {
	m := getMarks()
	defer putMarks(m)
	return groupStats(g, grp, m)
}

// groupStats is ComputeGroupStats with the caller's membership scratch,
// which it leaves clear: Identify measures every group with one buffer.
func groupStats(g *bipartite.Graph, grp detect.Group, m *groupMarks) GroupStats {
	st := GroupStats{Users: len(grp.Users), Items: len(grp.Items)}
	inGroup := m.markUsers(g, grp.Users)
	defer unmark(inGroup, grp.Users)

	var itemTotal uint64
	for _, v := range grp.Items {
		itemTotal += g.ItemStrength(v)
		g.EachItemNeighbor(v, func(u bipartite.NodeID, w uint32) bool {
			if inGroup[u] {
				st.Edges++
				st.FakeClicks += uint64(w)
			}
			return true
		})
	}
	if st.Users > 0 && st.Items > 0 {
		st.Density = float64(st.Edges) / (float64(st.Users) * float64(st.Items))
	}
	if st.Edges > 0 {
		st.MeanEdgeClicks = float64(st.FakeClicks) / float64(st.Edges)
	}
	if itemTotal > 0 {
		st.OutsideShare = float64(itemTotal-st.FakeClicks) / float64(itemTotal)
	}
	return st
}
