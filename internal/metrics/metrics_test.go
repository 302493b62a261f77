package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
	"repro/internal/detect"
)

func labelsFrom(users, items []bipartite.NodeID) *detect.Labels {
	l := detect.NewLabels()
	for _, u := range users {
		l.Users[u] = true
	}
	for _, v := range items {
		l.Items[v] = true
	}
	return l
}

func resultFrom(users, items []bipartite.NodeID) *detect.Result {
	return &detect.Result{Groups: []detect.Group{{Users: users, Items: items}}}
}

func TestEvaluateExact(t *testing.T) {
	truth := labelsFrom([]bipartite.NodeID{1, 2, 3}, []bipartite.NodeID{10})
	res := resultFrom([]bipartite.NodeID{1, 2, 4}, []bipartite.NodeID{10, 11})
	ev := Evaluate(res, truth)
	// tp = {1,2,10} = 3; output = 5; known = 4.
	if ev.TruePositives != 3 || ev.Output != 5 || ev.Known != 4 {
		t.Fatalf("counts = %+v", ev)
	}
	if !almost(ev.Precision, 0.6) || !almost(ev.Recall, 0.75) {
		t.Errorf("P=%v R=%v, want 0.6/0.75", ev.Precision, ev.Recall)
	}
	wantF1 := 2 * 0.6 * 0.75 / (0.6 + 0.75)
	if !almost(ev.F1, wantF1) {
		t.Errorf("F1 = %v, want %v", ev.F1, wantF1)
	}
}

func TestEvaluateEmptyOutput(t *testing.T) {
	truth := labelsFrom([]bipartite.NodeID{1}, nil)
	ev := Evaluate(&detect.Result{}, truth)
	if ev.Precision != 0 || ev.Recall != 0 || ev.F1 != 0 {
		t.Errorf("empty output eval = %+v", ev)
	}
}

func TestEvaluateEmptyTruth(t *testing.T) {
	ev := Evaluate(resultFrom([]bipartite.NodeID{1}, nil), detect.NewLabels())
	if ev.Recall != 0 || ev.Precision != 0 {
		t.Errorf("empty truth eval = %+v", ev)
	}
}

func TestEvaluateDeduplicatesAcrossGroups(t *testing.T) {
	truth := labelsFrom([]bipartite.NodeID{1}, nil)
	res := &detect.Result{Groups: []detect.Group{
		{Users: []bipartite.NodeID{1}},
		{Users: []bipartite.NodeID{1}}, // same user in two groups
	}}
	ev := Evaluate(res, truth)
	if ev.Output != 1 || ev.TruePositives != 1 {
		t.Errorf("duplicate user double-counted: %+v", ev)
	}
}

func TestEvaluateNodes(t *testing.T) {
	truth := labelsFrom([]bipartite.NodeID{1}, []bipartite.NodeID{2})
	ev := EvaluateNodes([]bipartite.NodeID{1, 3}, []bipartite.NodeID{2}, truth)
	if ev.TruePositives != 2 || ev.Output != 3 || ev.Known != 2 {
		t.Errorf("EvaluateNodes = %+v", ev)
	}
}

func TestEvalString(t *testing.T) {
	ev := Eval{Precision: 0.5, Recall: 0.25, F1: 1.0 / 3, TruePositives: 1, Output: 2, Known: 4}
	s := ev.String()
	for _, want := range []string{"P=0.500", "R=0.250", "tp=1", "out=2", "known=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// Property: precision and recall are always within [0,1], and F1 is the
// harmonic mean (or 0 when both are 0).
func TestPropertyMetricBounds(t *testing.T) {
	f := func(outIDs, truthIDs []uint16) bool {
		truth := detect.NewLabels()
		for _, id := range truthIDs {
			truth.Users[bipartite.NodeID(id)] = true
		}
		var users []bipartite.NodeID
		for _, id := range outIDs {
			users = append(users, bipartite.NodeID(id))
		}
		ev := Evaluate(resultFrom(users, nil), truth)
		if ev.Precision < 0 || ev.Precision > 1 || ev.Recall < 0 || ev.Recall > 1 {
			return false
		}
		if ev.Precision+ev.Recall == 0 {
			return ev.F1 == 0
		}
		want := 2 * ev.Precision * ev.Recall / (ev.Precision + ev.Recall)
		return math.Abs(ev.F1-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
