package core

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/synth"
)

// fig5Graph reconstructs the spirit of the paper's Fig 5 example: a
// candidate group of 3 users × 3 items where i0 is hot, u0 only has light
// clicks (and only on the hot item and one light ordinary edge), while u1
// and u2 hammer the ordinary items i1 and i2.
//
//	        i0 (hot, clicks 5000 from filler users)
//	u0: i0×2, i1×1
//	u1: i0×1, i1×15, i2×14
//	u2: i0×1, i1×13, i2×16
func fig5Graph() (*bipartite.Graph, detect.Group, *HotSet, Params) {
	b := bipartite.NewBuilder(200, 10)
	b.Add(0, 0, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 1, 15)
	b.Add(1, 2, 14)
	b.Add(2, 0, 1)
	b.Add(2, 1, 13)
	b.Add(2, 2, 16)
	// Filler traffic making i0 hot.
	for u := bipartite.NodeID(3); u < 200; u++ {
		b.Add(u, 0, 26)
	}
	g := b.Build()
	p := DefaultParams()
	p.K1, p.K2 = 2, 2
	p.THot = 1000
	p.TClick = 12
	hot := ComputeHotSet(g, p.THot)
	grp := detect.Group{
		Users: []bipartite.NodeID{0, 1, 2},
		Items: []bipartite.NodeID{0, 1, 2},
	}
	return g, grp, hot, p
}

func TestUserBehaviorCheckDropsHotOnlyUser(t *testing.T) {
	g, grp, hot, p := fig5Graph()
	if !hot.IsHot(0) {
		t.Fatal("fixture broken: item 0 should be hot")
	}
	kept := userBehaviorCheck(g, grp, hot, p, nil, 0, new(groupMarks))
	want := []bipartite.NodeID{1, 2}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("kept users = %v, want %v (u0 has no ≥T_click ordinary edge)", kept, want)
	}
}

func TestUserBehaviorCheckKeepsHotHeavyUserWithAttackEdge(t *testing.T) {
	// The literal Fig 5 check reads only ordinary edges: a user with a
	// strong ordinary edge passes however hard they also hammer hot items.
	b := bipartite.NewBuilder(200, 10)
	b.Add(0, 0, 19) // hot item, heavy clicks — ordinary-user profile (Table IV)
	b.Add(0, 1, 13)
	for u := bipartite.NodeID(1); u < 200; u++ {
		b.Add(u, 0, 26)
	}
	g := b.Build()
	p := DefaultParams()
	p.THot = 1000
	hot := ComputeHotSet(g, p.THot)
	grp := detect.Group{Users: []bipartite.NodeID{0}, Items: []bipartite.NodeID{0, 1}}
	if kept := userBehaviorCheck(g, grp, hot, p, nil, 0, new(groupMarks)); len(kept) != 1 {
		t.Errorf("user with an attack edge dropped: %v", kept)
	}
}

func TestUserBehaviorCheckKeepsWorkerWithoutHotEdges(t *testing.T) {
	// An attacker whose in-group items are all ordinary must pass.
	b := bipartite.NewBuilder(5, 5)
	b.Add(0, 0, 14)
	b.Add(0, 1, 13)
	g := b.Build()
	p := DefaultParams()
	hot := ComputeHotSet(g, p.THot)
	grp := detect.Group{Users: []bipartite.NodeID{0}, Items: []bipartite.NodeID{0, 1}}
	if kept := userBehaviorCheck(g, grp, hot, p, nil, 0, new(groupMarks)); len(kept) != 1 {
		t.Errorf("worker without hot edges dropped: %v", kept)
	}
}

func TestItemBehaviorVerification(t *testing.T) {
	g, grp, hot, p := fig5Graph()
	users := userBehaviorCheck(g, grp, hot, p, nil, 0, new(groupMarks)) // u1, u2
	items := itemBehaviorVerification(g, grp.Items, users, hot, p, nil, 0, new(groupMarks))
	// i0 is hot → excluded; i1, i2 have 2 supporters ≥ ceil(α·k1)=2.
	want := []bipartite.NodeID{1, 2}
	if !reflect.DeepEqual(items, want) {
		t.Errorf("verified items = %v, want %v", items, want)
	}
}

func TestItemBehaviorVerificationDropsCamouflage(t *testing.T) {
	g, grp, hot, p := fig5Graph()
	users := userBehaviorCheck(g, grp, hot, p, nil, 0, new(groupMarks))
	// Add a camouflage item i3 clicked once by each checked user.
	b := bipartite.NewBuilder(200, 10)
	g.EachLiveUser(func(u bipartite.NodeID) bool {
		g.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
			b.Add(u, v, w)
			return true
		})
		return true
	})
	b.Add(1, 3, 1)
	b.Add(2, 3, 2)
	g2 := b.Build()
	items := itemBehaviorVerification(g2, append(grp.Items, 3), users, hot, p, nil, 0, new(groupMarks))
	for _, v := range items {
		if v == 3 {
			t.Error("camouflage item 3 verified as target")
		}
	}
}

func TestScreenGroupsEndToEnd(t *testing.T) {
	// Build two planted attack groups glued by a shared hot item, plus the
	// hot item's organic fans. Screening must drop the hot item and the
	// fans, then split the merged component back into two groups.
	b := bipartite.NewBuilder(1000, 100)
	hotItem := bipartite.NodeID(0)
	for u := bipartite.NodeID(100); u < 1000; u++ {
		b.Add(u, hotItem, 3)
	}
	// Group A: users 0..11, items 1..12.
	for u := 0; u < 12; u++ {
		b.Add(bipartite.NodeID(u), hotItem, 1)
		for v := 1; v <= 12; v++ {
			b.Add(bipartite.NodeID(u), bipartite.NodeID(v), 14)
		}
	}
	// Group B: users 12..23, items 13..24.
	for u := 12; u < 24; u++ {
		b.Add(bipartite.NodeID(u), hotItem, 1)
		for v := 13; v <= 24; v++ {
			b.Add(bipartite.NodeID(u), bipartite.NodeID(v), 14)
		}
	}
	g := b.Build()
	p := DefaultParams()
	p.THot = 1000
	p.K1, p.K2 = 10, 10
	hot := ComputeHotSet(g, p.THot)
	if !hot.IsHot(hotItem) {
		t.Fatal("fixture broken: item 0 should be hot")
	}

	// Feed screening one merged candidate group, as extraction would
	// produce it.
	var users, items []bipartite.NodeID
	for u := 0; u < 24; u++ {
		users = append(users, bipartite.NodeID(u))
	}
	for v := 0; v <= 24; v++ {
		items = append(items, bipartite.NodeID(v))
	}
	merged := []detect.Group{{Users: users, Items: items}}

	out := screenGroups(g, merged, hot, p)
	if len(out) != 2 {
		t.Fatalf("got %d groups after screening, want 2 (split on hot-item removal)", len(out))
	}
	for _, grp := range out {
		if len(grp.Users) != 12 || len(grp.Items) != 12 {
			t.Errorf("screened group = %d users / %d items, want 12/12",
				len(grp.Users), len(grp.Items))
		}
		for _, v := range grp.Items {
			if v == hotItem {
				t.Error("hot item survived screening")
			}
		}
	}
}

// TestScreenGroupsSizeBoundsAreInclusive: the repartition keeps a surviving
// component of exactly K1 users and K2 items and drops one a single item
// short. The merged candidate is two planted groups glued by a hot item: A
// is 4 users × 4 items, B 4 users × 3 items, under K1 = K2 = 4.
func TestScreenGroupsSizeBoundsAreInclusive(t *testing.T) {
	b := bipartite.NewBuilder(1000, 20)
	hotItem := bipartite.NodeID(0)
	for u := bipartite.NodeID(100); u < 1000; u++ {
		b.Add(u, hotItem, 3)
	}
	plant := func(users, items []bipartite.NodeID) {
		for _, u := range users {
			b.Add(u, hotItem, 1)
			for _, v := range items {
				b.Add(u, v, 14)
			}
		}
	}
	a := detect.Group{Users: []bipartite.NodeID{0, 1, 2, 3}, Items: []bipartite.NodeID{1, 2, 3, 4}}
	plant(a.Users, a.Items)
	plant([]bipartite.NodeID{4, 5, 6, 7}, []bipartite.NodeID{5, 6, 7})
	g := b.Build()
	p := DefaultParams()
	p.K1, p.K2 = 4, 4
	hot := ComputeHotSet(g, p.THot)
	if !hot.IsHot(hotItem) {
		t.Fatal("fixture broken: item 0 should be hot")
	}
	merged := detect.Group{Users: []bipartite.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, Items: []bipartite.NodeID{0, 1, 2, 3, 4, 5, 6, 7}}
	if out := screenGroups(g, []detect.Group{merged}, hot, p); !reflect.DeepEqual(out, []detect.Group{a}) {
		t.Fatalf("screened %+v, want only the %d×%d group %+v", out, p.K1, p.K2, a)
	}
}

func TestScreenGroupsEmptyInput(t *testing.T) {
	g := bipartite.NewGraph(1, 1)
	p := DefaultParams()
	hot := ComputeHotSet(g, p.THot)
	if out := screenGroups(g, nil, hot, p); out != nil {
		t.Errorf("screening nil groups = %v, want nil", out)
	}
}

// Candidates that share one graph are screened concurrently, each worker on
// its own membership marks: overlapping groups give the same output at 1 and
// 8 workers, and every buffer goes back to the pool clear.
func TestScreenGroupsCtxOverlappingGroupsConcurrentMarks(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	g := ds.Graph
	p := smallParams()
	hot := ComputeHotSet(g, p.THot)
	group := func(users, items []bipartite.NodeID) detect.Group {
		grp := detect.Group{Users: slices.Clone(users), Items: slices.Clone(items)}
		slices.Sort(grp.Users)
		grp.Users = slices.Compact(grp.Users)
		slices.Sort(grp.Items)
		grp.Items = slices.Compact(grp.Items)
		return grp
	}
	var groups []detect.Group
	for i, a := range ds.Groups {
		b := ds.Groups[(i+1)%len(ds.Groups)]
		groups = append(groups,
			group(a.Attackers, a.Targets),
			group(a.Attackers[:len(a.Attackers)/2], a.Targets),
			group(append(a.Attackers, b.Attackers...), append(a.Targets, b.Targets...)),
			group(a.Attackers, b.Targets))
	}

	var mu sync.Mutex
	released, dirty := 0, 0
	testMarksHook = func(m *groupMarks) {
		mu.Lock()
		defer mu.Unlock()
		released++
		if slices.Contains(m.users, true) || slices.Contains(m.items, true) {
			dirty++
		}
	}
	defer func() { testMarksHook = nil }()

	var outs [][]detect.Group
	for _, workers := range []int{1, 8} {
		pw := p
		pw.Workers = workers
		out, err := ScreenGroupsCtx(context.Background(), g, groups, hot, pw, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if len(outs[0]) == 0 {
		t.Fatal("screening kept no group; the test needs survivors")
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatalf("Workers 1 and 8 screen differently:\n%v\n%v", outs[0], outs[1])
	}
	if released < 2 || dirty != 0 {
		t.Fatalf("%d of %d released mark buffers were not clear", dirty, released)
	}
}
