package core

import (
	"context"
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
	r := RankResult(g, res)
	if len(r.Users) != 2 || len(r.Items) != 2 {
		t.Fatalf("ranking sizes = %d users / %d items", len(r.Users), len(r.Items))
	}
	// u0 risk 2, u1 risk 1.
	if r.Users[0].ID != 0 || r.Users[0].Score != 2 {
		t.Errorf("top user = %+v, want u0 score 2", r.Users[0])
	}
	if r.Users[1].ID != 1 || r.Users[1].Score != 1 {
		t.Errorf("second user = %+v, want u1 score 1", r.Users[1])
	}
	// v0: clickers u0(2), u1(1), u2(0) → avg 1; v1: u0(2) → avg 2.
	if r.Items[0].ID != 1 || r.Items[0].Score != 2 {
		t.Errorf("top item = %+v, want v1 score 2", r.Items[0])
	}
	if r.Items[1].ID != 0 || r.Items[1].Score != 1 {
		t.Errorf("second item = %+v, want v0 score 1", r.Items[1])
	}
}

func TestRankingTopK(t *testing.T) {
	r := Ranking{
		Users: []RankedNode{{ID: 1, Score: 3}, {ID: 2, Score: 2}, {ID: 3, Score: 1}},
		Items: []RankedNode{{ID: 9, Score: 5}},
	}
	if got := r.TopUsers(2); len(got) != 2 || got[0].ID != 1 {
		t.Errorf("TopUsers(2) = %+v", got)
	}
	if got := r.TopUsers(10); len(got) != 3 {
		t.Errorf("TopUsers(10) returned %d", len(got))
	}
	if got := r.TopItems(0); got != nil {
		t.Errorf("TopItems(0) = %+v, want nil", got)
	}
}

func TestRankResultEmptyResult(t *testing.T) {
	g := bipartite.NewGraph(1, 1)
	r := RankResult(g, &detect.Result{})
	if len(r.Users) != 0 || len(r.Items) != 0 {
		t.Errorf("empty result produced ranking %+v", r)
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
