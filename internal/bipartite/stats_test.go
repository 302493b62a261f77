package bipartite

import (
	"math"
	"testing"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestHistogramBuckets(t *testing.T) {
	g := testGraph(t)
	h := Histogram(g, UserSide)
	// Strengths 4, 8, 7, 0: bucket 0 (zero) → 1; [4,8) → u0 and u2; [8,16) → u1.
	total := 0
	for _, c := range h.Count {
		total += c
	}
	if total != g.LiveUsers() {
		t.Fatalf("histogram covers %d users, want %d", total, g.LiveUsers())
	}
	if h.Count[0] != 1 {
		t.Errorf("zero bucket = %d, want 1", h.Count[0])
	}
	find := func(low uint64) int {
		for i, l := range h.BucketLow {
			if l == low && i > 0 {
				return h.Count[i]
			}
		}
		return -1
	}
	if got := find(4); got != 2 {
		t.Errorf("bucket [4,8) = %d, want 2", got)
	}
	if got := find(8); got != 1 {
		t.Errorf("bucket [8,16) = %d, want 1", got)
	}
}

func TestGiniClicksBounds(t *testing.T) {
	// All-equal strengths → Gini 0.
	b := NewBuilder(4, 4)
	for i := NodeID(0); i < 4; i++ {
		b.Add(i, i, 10)
	}
	g := b.Build()
	if gini := GiniClicks(g, UserSide); !almostEqual(gini, 0, 1e-9) {
		t.Errorf("uniform Gini = %v, want 0", gini)
	}
	// One vertex holds everything → Gini → (n-1)/n.
	b2 := NewBuilder(4, 1)
	b2.Add(0, 0, 1000)
	b2.Add(1, 0, 0)
	g2 := b2.Build()
	gini := GiniClicks(g2, UserSide)
	if gini < 0.7 {
		t.Errorf("concentrated Gini = %v, want > 0.7", gini)
	}
}

func TestTopClickShare(t *testing.T) {
	// 10 users: one with 90 clicks, nine with 1 click gives top-10% share ≈ 0.909.
	b := NewBuilder(10, 1)
	b.Add(0, 0, 91)
	for i := NodeID(1); i < 10; i++ {
		b.Add(i, 0, 1)
	}
	g := b.Build()
	share := TopClickShare(g, UserSide, 0.1)
	if !almostEqual(share, 0.91, 1e-9) {
		t.Errorf("TopClickShare = %v, want 0.91", share)
	}
	if s := TopClickShare(g, UserSide, 1.0); !almostEqual(s, 1.0, 1e-9) {
		t.Errorf("full share = %v, want 1", s)
	}
}

func TestTopClickShareEmpty(t *testing.T) {
	g := NewGraph(0, 0)
	if s := TopClickShare(g, ItemSide, 0.2); s != 0 {
		t.Errorf("empty share = %v, want 0", s)
	}
}
