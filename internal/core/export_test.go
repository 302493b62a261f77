package core

import "repro/internal/bipartite"

// SetRankHook installs (nil: removes) the hook RankResult calls once per
// execution, for tests outside this package that count ranking passes.
func SetRankHook(h func()) { testRankHook = h }

// newCommonCounter is a fresh counter for a graph of the given size, outside
// any pool.
func newCommonCounter(numUsers, numItems int) *commonCounter {
	return &commonCounter{countsU: make([]int32, numUsers), countsI: make([]int32, numItems)}
}

// newCertificates is a fresh certificate slab for n vertices, outside any
// frontier.
func newCertificates(n, k int) *certificates {
	cs := new(certificates)
	cs.reset(n, k)
	return cs
}

// newWideMasks is a fresh wideMasks built on g for a user test of the given
// need, outside any frontier.
func newWideMasks(g *bipartite.Graph, need int) *wideMasks {
	wm := new(wideMasks)
	wm.build(g, need)
	return wm
}
