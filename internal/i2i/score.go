// Package i2i implements the item-to-item relevance model the "Ride Item's
// Coattails" attack manipulates: the I2I-score of Eq 1, a top-k
// recommender built on it, the attacker's click-allocation problem of
// Eqs 2–3 with its closed-form optimal strategy, and the campaign traffic
// simulator behind the Section VII case study.
package i2i

import (
	"sort"

	"repro/internal/bipartite"
)

// ItemScore is one entry of an anchor item's I2I score list.
type ItemScore struct {
	Item bipartite.NodeID
	// CoClicks is C_i: total clicks on Item by users who clicked the anchor.
	CoClicks uint64
	// Score is S_i = C_i / Σ_j C_j (Eq 1).
	Score float64
}

// CoClicks computes C_i for every item co-clicked with anchor: the total
// click weight spent on item i by users who clicked the anchor item. The
// anchor itself is excluded.
func CoClicks(g *bipartite.Graph, anchor bipartite.NodeID) map[bipartite.NodeID]uint64 {
	out := map[bipartite.NodeID]uint64{}
	g.EachItemNeighbor(anchor, func(u bipartite.NodeID, _ uint32) bool {
		g.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
			if v != anchor {
				out[v] += uint64(w)
			}
			return true
		})
		return true
	})
	return out
}

// Scores computes the normalized I2I score list of an anchor item, sorted
// by descending score with ties broken by ascending item ID.
func Scores(g *bipartite.Graph, anchor bipartite.NodeID) []ItemScore {
	co := CoClicks(g, anchor)
	if len(co) == 0 {
		return nil
	}
	var total uint64
	for _, c := range co {
		total += c
	}
	out := make([]ItemScore, 0, len(co))
	for item, c := range co {
		out = append(out, ItemScore{Item: item, CoClicks: c, Score: float64(c) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// Recommend returns the top-k recommendation list for a user who just
// clicked the anchor item — the I2I serving path the attack hijacks. A k of
// zero or less recommends nothing.
func Recommend(g *bipartite.Graph, anchor bipartite.NodeID, k int) []bipartite.NodeID {
	if k <= 0 {
		return nil
	}
	scores := Scores(g, anchor)
	if k > len(scores) {
		k = len(scores)
	}
	out := make([]bipartite.NodeID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, scores[i].Item)
	}
	return out
}
