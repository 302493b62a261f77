// Package metrics implements the paper's evaluation measures: precision
// (Eq 5), recall (Eq 6) and F1-score over suspicious-node sets, for users
// and items jointly or per side.
package metrics

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/detect"
)

// Eval holds one evaluation outcome.
type Eval struct {
	Precision float64
	Recall    float64
	F1        float64

	// TruePositives, Output and Known are the raw counts behind the
	// ratios: detected∩known, |output|, |known|.
	TruePositives int
	Output        int
	Known         int
}

// String formats the evaluation compactly.
func (e Eval) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d out=%d known=%d)",
		e.Precision, e.Recall, e.F1, e.TruePositives, e.Output, e.Known)
}

// Evaluate scores a detection result against ground truth over the union of
// user and item nodes, the way the paper's Eq 5–6 count "abnormal nodes".
func Evaluate(res *detect.Result, truth *detect.Labels) Eval {
	tp := 0
	out := 0
	for _, u := range res.Users() {
		out++
		if truth.Users[u] {
			tp++
		}
	}
	for _, v := range res.Items() {
		out++
		if truth.Items[v] {
			tp++
		}
	}
	return newEval(tp, out, truth.NumAbnormal())
}

// EvaluateNodes scores arbitrary node lists (used by rankers' top-k cuts).
func EvaluateNodes(users, items []bipartite.NodeID, truth *detect.Labels) Eval {
	tp := 0
	for _, u := range users {
		if truth.Users[u] {
			tp++
		}
	}
	for _, v := range items {
		if truth.Items[v] {
			tp++
		}
	}
	return newEval(tp, len(users)+len(items), truth.NumAbnormal())
}

func newEval(tp, out, known int) Eval {
	e := Eval{TruePositives: tp, Output: out, Known: known}
	if out > 0 {
		e.Precision = float64(tp) / float64(out)
	}
	if known > 0 {
		e.Recall = float64(tp) / float64(known)
	}
	if e.Precision+e.Recall > 0 {
		e.F1 = 2 * e.Precision * e.Recall / (e.Precision + e.Recall)
	}
	return e
}
