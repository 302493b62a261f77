package i2i

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bipartite"
)

// recGraph: anchor item 0 clicked by u0,u1. u0 also clicks item 1 (×3);
// u1 clicks items 1 (×1) and 2 (×2). u2 clicks item 3 only (no co-click).
func recGraph() *bipartite.Graph {
	b := bipartite.NewBuilder(3, 4)
	b.Add(0, 0, 1)
	b.Add(0, 1, 3)
	b.Add(1, 0, 2)
	b.Add(1, 1, 1)
	b.Add(1, 2, 2)
	b.Add(2, 3, 5)
	return b.Build()
}

func TestCoClicks(t *testing.T) {
	g := recGraph()
	co := CoClicks(g, 0)
	want := map[bipartite.NodeID]uint64{1: 4, 2: 2}
	if !reflect.DeepEqual(co, want) {
		t.Errorf("CoClicks = %v, want %v", co, want)
	}
}

func TestScoresNormalized(t *testing.T) {
	g := recGraph()
	scores := Scores(g, 0)
	if len(scores) != 2 {
		t.Fatalf("got %d scores, want 2", len(scores))
	}
	if scores[0].Item != 1 || math.Abs(scores[0].Score-4.0/6.0) > 1e-12 {
		t.Errorf("top score = %+v, want item 1 score 2/3", scores[0])
	}
	var sum float64
	for _, s := range scores {
		sum += s.Score
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("scores sum to %v, want 1", sum)
	}
}

func TestScoresNoCoClicks(t *testing.T) {
	g := recGraph()
	if s := Scores(g, 3); s != nil {
		t.Errorf("item 3 has no co-clicks, got %v", s)
	}
}

func TestRecommend(t *testing.T) {
	g := recGraph()
	got := Recommend(g, 0, 1)
	if !reflect.DeepEqual(got, []bipartite.NodeID{1}) {
		t.Errorf("Recommend = %v, want [1]", got)
	}
	if got := Recommend(g, 0, 10); len(got) != 2 {
		t.Errorf("Recommend k>n returned %d items", len(got))
	}
	for _, k := range []int{0, -1} {
		if got := Recommend(g, 0, k); got != nil {
			t.Errorf("Recommend k=%d = %v, want nil", k, got)
		}
	}
}

// rank returns the 1-based position of target in anchor's score list, or 0
// if the target does not co-occur at all.
func rank(g *bipartite.Graph, anchor, target bipartite.NodeID) int {
	for i, s := range Scores(g, anchor) {
		if s.Item == target {
			return i + 1
		}
	}
	return 0
}

func TestRank(t *testing.T) {
	g := recGraph()
	if r := rank(g, 0, 2); r != 2 {
		t.Errorf("rank(0,2) = %d, want 2", r)
	}
	if r := rank(g, 0, 3); r != 0 {
		t.Errorf("rank of non-co-clicked item = %d, want 0", r)
	}
}

func TestAttackRaisesScoreAndRank(t *testing.T) {
	// Attack: users 10..14 click anchor 0 once and target 2 many times.
	// The target's rank in anchor's list must improve.
	g := recGraph()
	before := rank(g, 0, 2)

	b := bipartite.NewBuilder(15, 4)
	g.EachLiveUser(func(u bipartite.NodeID) bool {
		g.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
			b.Add(u, v, w)
			return true
		})
		return true
	})
	for u := bipartite.NodeID(10); u < 15; u++ {
		b.Add(u, 0, 1)
		b.Add(u, 2, 15)
	}
	attacked := b.Build()
	after := rank(attacked, 0, 2)
	if after >= before {
		t.Errorf("attack did not improve rank: before %d, after %d", before, after)
	}
	if after != 1 {
		t.Errorf("attacked target rank = %d, want 1", after)
	}
}
