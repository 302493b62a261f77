package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/synth"
)

func TestRankResultScores(t *testing.T) {
	// u0 clicks sus items v0,v1; u1 clicks v0 only; v0 is clicked by both
	// plus an innocent u2.
	b := bipartite.NewBuilder(3, 3)
	b.Add(0, 0, 5)
	b.Add(0, 1, 5)
	b.Add(1, 0, 5)
	b.Add(2, 0, 1)
	b.Add(2, 2, 1)
	g := b.Build()
	res := &detect.Result{Groups: []detect.Group{{
		Users: []bipartite.NodeID{0, 1},
		Items: []bipartite.NodeID{0, 1},
	}}}
	users, items := RankResult(g, res)
	if len(users) != 2 || len(items) != 2 {
		t.Fatalf("ranking sizes = %d users / %d items", len(users), len(items))
	}
	// u0 risk 2, u1 risk 1.
	if users[0].ID != 0 || users[0].Score != 2 {
		t.Errorf("top user = %+v, want u0 score 2", users[0])
	}
	if users[1].ID != 1 || users[1].Score != 1 {
		t.Errorf("second user = %+v, want u1 score 1", users[1])
	}
	// v0: clickers u0(2), u1(1), u2(0) → avg 1; v1: u0(2) → avg 2.
	if items[0].ID != 1 || items[0].Score != 2 {
		t.Errorf("top item = %+v, want v1 score 2", items[0])
	}
	if items[1].ID != 0 || items[1].Score != 1 {
		t.Errorf("second item = %+v, want v0 score 1", items[1])
	}
}

// TestIdentifyScoresOrdersAndRunsOnce: one Identify call leaves the rankings,
// each group's score (mean user risk) and statistics on the result, most
// suspicious group first; a second call — even against another graph —
// changes nothing and ranks nothing.
func TestIdentifyScoresOrdersAndRunsOnce(t *testing.T) {
	// Group A: u0,u1 × v0 (risk 1 each). Group B: u2,u3 × v1,v2 (risk 2 each).
	b := bipartite.NewBuilder(4, 3)
	b.Add(0, 0, 5)
	b.Add(1, 0, 5)
	for _, u := range []bipartite.NodeID{2, 3} {
		b.Add(u, 1, 7)
		b.Add(u, 2, 7)
	}
	g := b.Build()
	groupA := detect.Group{Users: []bipartite.NodeID{0, 1}, Items: []bipartite.NodeID{0}}
	groupB := detect.Group{Users: []bipartite.NodeID{3, 2}, Items: []bipartite.NodeID{1, 2}}
	res := &detect.Result{Groups: []detect.Group{groupA, groupB}}

	passes := 0
	testRankHook = func() { passes++ }
	defer func() { testRankHook = nil }()
	Identify(g, res)
	if passes != 1 {
		t.Errorf("Identify ranked %d times, want 1", passes)
	}

	wantUsers, wantItems := RankResult(g, &detect.Result{Groups: []detect.Group{groupA, groupB}})
	if !reflect.DeepEqual(res.RankedUsers, wantUsers) || !reflect.DeepEqual(res.RankedItems, wantItems) {
		t.Errorf("rankings = %v / %v, RankResult gives %v / %v", res.RankedUsers, res.RankedItems, wantUsers, wantItems)
	}
	if len(res.Groups) != 2 || res.Groups[0].Users[0] != 3 || res.Groups[0].Score != 2 || res.Groups[1].Score != 1 {
		t.Fatalf("groups = %+v, want B (score 2) before A (score 1)", res.Groups)
	}
	for _, grp := range res.Groups {
		st := ComputeGroupStats(g, grp)
		if grp.Density != st.Density || grp.MeanEdgeClicks != st.MeanEdgeClicks || grp.OutsideShare != st.OutsideShare {
			t.Errorf("group %v carries %v/%v/%v, ComputeGroupStats gives %+v",
				grp.Users, grp.Density, grp.MeanEdgeClicks, grp.OutsideShare, st)
		}
	}

	before := append([]detect.Group(nil), res.Groups...)
	passes = 0
	Identify(bipartite.NewGraph(4, 3), res)
	if passes != 0 || !reflect.DeepEqual(res.Groups, before) {
		t.Errorf("identifying an identified result ranked %d times and left %+v", passes, res.Groups)
	}
}

func TestRankResultEmptyResult(t *testing.T) {
	g := bipartite.NewGraph(1, 1)
	users, items := RankResult(g, &detect.Result{})
	if users != nil || items != nil {
		t.Errorf("empty result produced ranking %+v / %+v", users, items)
	}
}

func TestDetectWithFeedbackMeetsExpectation(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	p := smallParams()
	fr, err := DetectWithFeedbackContext(context.Background(), ds.Graph, p, 10, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.MetExpectation {
		t.Errorf("expectation of 10 nodes not met: %d nodes after %d iters",
			fr.Result.NumNodes(), fr.Iterations)
	}
	if fr.Iterations != 1 {
		t.Errorf("defaults should satisfy a 10-node expectation in one run, took %d", fr.Iterations)
	}
}

func TestDetectWithFeedbackRelaxes(t *testing.T) {
	// Demand more nodes than the strict run yields; the loop must relax
	// parameters and re-run.
	ds := synth.MustGenerate(synth.SmallConfig())
	p := smallParams()
	strict := &Detector{Params: p}
	base, err := strict.Detect(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	want := base.NumNodes() + 5
	fr, err := DetectWithFeedbackContext(context.Background(), ds.Graph, p, want, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Iterations < 2 {
		t.Errorf("expected ≥ 2 iterations, got %d", fr.Iterations)
	}
	if fr.Params.TClick >= p.TClick && fr.Params.Alpha >= p.Alpha &&
		fr.Params.K1 >= p.K1 && fr.Params.K2 >= p.K2 {
		t.Errorf("no parameter was relaxed: %+v", fr.Params)
	}
	if fr.Result.NumNodes() < base.NumNodes() {
		t.Errorf("relaxation shrank the output: %d < %d", fr.Result.NumNodes(), base.NumNodes())
	}
}

func TestDetectWithFeedbackStopsAtFloor(t *testing.T) {
	// An absurd expectation must terminate once every knob hits its floor.
	ds := synth.MustGenerate(synth.SmallConfig())
	fr, err := DetectWithFeedbackContext(context.Background(), ds.Graph, smallParams(), 1<<30, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fr.MetExpectation {
		t.Error("cannot meet an absurd expectation")
	}
	if fr.Iterations > 40 {
		t.Errorf("loop did not stop at parameter floor: %d iterations", fr.Iterations)
	}
}

func TestRelaxOrder(t *testing.T) {
	p := DefaultParams()
	// TClick relaxes first.
	q, ok := relax(p)
	if !ok || q.TClick != p.TClick-2 || q.Alpha != p.Alpha {
		t.Errorf("first relax = %+v", q)
	}
	// Exhaust TClick, then Alpha, then K1/K2, then stop.
	for i := 0; i < 100; i++ {
		var done bool
		q, done = relax(q)
		if !done {
			if q.TClick > 4 || q.Alpha > 0.7 || q.K1 > 4 || q.K2 > 4 {
				t.Errorf("relax gave up early: %+v", q)
			}
			return
		}
	}
	t.Error("relax never reached its floor")
}

// TestRankResultMatchesColumnWalk pins the push ranking, and Identify
// around it, to the reference model's column walk bit for bit, on random
// graphs with dead users and dead items, users in two groups, a member that
// clicked no suspicious item (score 0) and a suspicious item nobody clicked.
// Counting an item's dead clickers in its degree fails it.
func TestRankResultMatchesColumnWalk(t *testing.T) {
	// Ranking leases pooled scratch and must hand it back clear.
	testMarksHook = func(m *groupMarks) {
		if slices.Contains(m.users, true) || slices.Contains(m.items, true) ||
			slices.ContainsFunc(m.sums, func(f float64) bool { return f != 0 }) {
			t.Error("ranking returned dirty scratch to the pool")
		}
	}
	defer func() { testMarksHook = nil }()
	rng := rand.New(rand.NewSource(43))
	for trial := range 200 {
		nu, ni := 8+rng.Intn(40), 6+rng.Intn(20)
		// User nu and item ni are isolated: they get no arcs.
		b := bipartite.NewBuilder(nu+1, ni+1)
		for u := range nu {
			for v := range ni {
				if rng.Intn(3) == 0 {
					b.Add(bipartite.NodeID(u), bipartite.NodeID(v), uint32(1+rng.Intn(20)))
				}
			}
		}
		g := b.Build()
		for range rng.Intn(4) {
			g.RemoveUser(bipartite.NodeID(rng.Intn(nu)))
		}
		for range rng.Intn(3) {
			g.RemoveItem(bipartite.NodeID(rng.Intn(ni)))
		}
		pick := func(n, k int) []bipartite.NodeID {
			ids := make([]bipartite.NodeID, 0, k)
			for _, id := range rng.Perm(n)[:k] {
				ids = append(ids, bipartite.NodeID(id))
			}
			return ids
		}
		var groups []detect.Group
		for range 2 + rng.Intn(3) {
			groups = append(groups, detect.Group{Users: pick(nu, 1+rng.Intn(nu/2)), Items: pick(ni, 1+rng.Intn(ni/2))})
		}
		shared := groups[1].Users[0]
		if !slices.Contains(groups[0].Users, shared) {
			groups[0].Users = append(groups[0].Users, shared) // in two groups
		}
		groups[0].Users = append(groups[0].Users, bipartite.NodeID(nu)) // score 0
		groups[1].Items = append(groups[1].Items, bipartite.NodeID(ni)) // clicked by nobody
		clone := func() *detect.Result {
			r := &detect.Result{Groups: make([]detect.Group, len(groups))}
			for i, grp := range groups {
				r.Groups[i] = detect.Group{Users: slices.Clone(grp.Users), Items: slices.Clone(grp.Items)}
			}
			return r
		}

		label := fmt.Sprintf("trial %d", trial)
		gotU, gotI := RankResult(g, clone())
		wantU, wantI := refRank(g, clone())
		sameRanking(t, label+" users", gotU, wantU)
		sameRanking(t, label+" items", gotI, wantI)

		got, want := clone(), clone()
		Identify(g, got)
		refIdentify(g, want)
		sameRanking(t, label+" identified users", got.RankedUsers, want.RankedUsers)
		sameRanking(t, label+" identified items", got.RankedItems, want.RankedItems)
		for gi := range want.Groups {
			w, h := want.Groups[gi], got.Groups[gi]
			if !slices.Equal(h.Users, w.Users) || !slices.Equal(h.Items, w.Items) ||
				math.Float64bits(h.Score) != math.Float64bits(w.Score) ||
				math.Float64bits(h.Density) != math.Float64bits(w.Density) ||
				math.Float64bits(h.MeanEdgeClicks) != math.Float64bits(w.MeanEdgeClicks) ||
				math.Float64bits(h.OutsideShare) != math.Float64bits(w.OutsideShare) {
				t.Fatalf("%s: group %d = %+v, reference %+v", label, gi, h, w)
			}
		}
	}
}

func sameRanking(t *testing.T, label string, got, want []detect.Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranked, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}
