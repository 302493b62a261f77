package core

import (
	"testing"

	"repro/internal/bipartite"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.K1 = 0 },
		func(p *Params) { p.K2 = -1 },
		func(p *Params) { p.Alpha = 0 },
		func(p *Params) { p.Alpha = 1.2 },
		func(p *Params) { p.TClick = 0 },
		func(p *Params) { p.Workers = -2 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestCeilMul(t *testing.T) {
	cases := []struct {
		k     int
		alpha float64
		want  int
	}{
		{10, 1.0, 10},
		{10, 0.7, 7},
		{10, 0.75, 8},
		{3, 0.5, 2},
		{1, 0.1, 1},
		{0, 0.9, 0},
	}
	for _, c := range cases {
		if got := ceilMul(c.k, c.alpha); got != c.want {
			t.Errorf("ceilMul(%d, %v) = %d, want %d", c.k, c.alpha, got, c.want)
		}
	}
}

func TestDeriveThresholds(t *testing.T) {
	// 10 items: one with 80 clicks, nine with 2-3 clicks. The 80% cut
	// lands inside item 0, so T_hot must equal its strength.
	b := bipartite.NewBuilder(20, 10)
	for u := bipartite.NodeID(0); u < 16; u++ {
		b.Add(u, 0, 5)
	}
	for v := bipartite.NodeID(1); v < 10; v++ {
		b.Add(bipartite.NodeID(v), v, 2)
	}
	g := b.Build()
	th := DeriveThresholds(g)
	if th.THot != 80 {
		t.Errorf("THot = %d, want 80", th.THot)
	}
	if th.HotItems != 1 {
		t.Errorf("HotItems = %d, want 1", th.HotItems)
	}
	if th.TClick < 1 {
		t.Errorf("TClick = %d, want ≥ 1", th.TClick)
	}
}

func TestDeriveThresholdsEq4(t *testing.T) {
	// Construct a graph with exactly known user-side statistics:
	// 2 users, each with 10 total clicks over 2 items → Avg_clk = 10,
	// Avg_cnt = 2 → T_click = (10×0.8)/(2×0.2) = 20.
	b := bipartite.NewBuilder(2, 4)
	b.Add(0, 0, 5)
	b.Add(0, 1, 5)
	b.Add(1, 2, 5)
	b.Add(1, 3, 5)
	g := b.Build()
	th := DeriveThresholds(g)
	if th.TClick != 20 {
		t.Errorf("TClick = %d, want 20", th.TClick)
	}
}

func TestDeriveThresholdsEmpty(t *testing.T) {
	g := bipartite.NewGraph(0, 0)
	th := DeriveThresholds(g)
	if th.THot != 0 || th.TClick != 1 {
		t.Errorf("empty thresholds = %+v", th)
	}
}

func TestHotSet(t *testing.T) {
	// The highest item ID is hot, so a bound that stops one short shows.
	b := bipartite.NewBuilder(3, 4)
	b.Add(0, 0, 100)
	b.Add(1, 1, 50)
	b.Add(2, 2, 10)
	b.Add(2, 3, 70)
	g := b.Build()
	h := ComputeHotSet(g, 50)
	if !h.IsHot(0) || !h.IsHot(1) || h.IsHot(2) || !h.IsHot(3) {
		t.Errorf("hot flags = %v %v %v %v, want true true false true", h.IsHot(0), h.IsHot(1), h.IsHot(2), h.IsHot(3))
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3", h.Count())
	}
	if h.Threshold() != 50 {
		t.Errorf("Threshold = %d, want 50", h.Threshold())
	}
	if h.IsHot(99) {
		t.Error("out-of-range item reported hot")
	}
}
