package bipartite

import (
	"math"
	"sort"
)

// ClickHistogram is a log-binned histogram of per-vertex total clicks, used
// to reproduce the heavy-tailed distributions of the paper's Fig 2.
type ClickHistogram struct {
	// BucketLow[i] is the inclusive lower click bound of bucket i; buckets
	// are powers of two: [1,2), [2,4), [4,8), ...; bucket 0 counts
	// zero-click vertices.
	BucketLow []uint64
	Count     []int
}

// Histogram builds the log-binned click histogram for the requested side.
func Histogram(g *Graph, s Side) ClickHistogram {
	counts := map[int]int{}
	maxBucket := 0
	observe := func(strength uint64) {
		b := 0
		if strength > 0 {
			b = 1 + bitsLen(strength) // [1,2)→1, [2,4)→2, ...
		}
		counts[b]++
		if b > maxBucket {
			maxBucket = b
		}
	}
	if s == UserSide {
		g.EachLiveUser(func(u NodeID) bool { observe(g.UserStrength(u)); return true })
	} else {
		g.EachLiveItem(func(v NodeID) bool { observe(g.ItemStrength(v)); return true })
	}
	h := ClickHistogram{
		BucketLow: make([]uint64, maxBucket+1),
		Count:     make([]int, maxBucket+1),
	}
	for b := 0; b <= maxBucket; b++ {
		if b > 0 {
			h.BucketLow[b] = uint64(1) << uint(b-1)
		}
		h.Count[b] = counts[b]
	}
	return h
}

func bitsLen(x uint64) int {
	n := -1
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}

// GiniClicks returns the Gini coefficient of the per-vertex total click
// distribution for the requested side — a scalar heavy-tail measure used by
// the synthetic-data validation tests (a Pareto 80/20 split corresponds to a
// Gini of about 0.6 or more).
func GiniClicks(g *Graph, s Side) float64 {
	var xs []float64
	if s == UserSide {
		g.EachLiveUser(func(u NodeID) bool {
			xs = append(xs, float64(g.UserStrength(u)))
			return true
		})
	} else {
		g.EachLiveItem(func(v NodeID) bool {
			xs = append(xs, float64(g.ItemStrength(v)))
			return true
		})
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	var cum, total float64
	for i, x := range xs {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - (float64(n)+1)/float64(n)
}

// TopClickShare returns the fraction of total click weight captured by the
// top `fraction` (for example 0.2) of vertices on side s, ranked by clicks.
// A Pareto-principle dataset has TopClickShare(g, ItemSide, 0.2) ≈ 0.8.
func TopClickShare(g *Graph, s Side, fraction float64) float64 {
	var xs []uint64
	if s == UserSide {
		g.EachLiveUser(func(u NodeID) bool {
			xs = append(xs, g.UserStrength(u))
			return true
		})
	} else {
		g.EachLiveItem(func(v NodeID) bool {
			xs = append(xs, g.ItemStrength(v))
			return true
		})
	}
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] > xs[j] })
	k := int(math.Ceil(fraction * float64(len(xs))))
	if k < 1 {
		k = 1
	}
	if k > len(xs) {
		k = len(xs)
	}
	var top, total uint64
	for i, x := range xs {
		if i < k {
			top += x
		}
		total += x
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}
