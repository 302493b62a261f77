package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/i2i"
	"repro/internal/metrics"
	"repro/internal/synth"
)

// StrategyOptimality (X1) validates the Eq 2–3 analysis numerically: for a
// sweep of budgets and marketplace states, the exhaustive best allocation
// must equal the closed form C′ = C = C_b − 2, and the attained score must
// match Eq 3's bound.
func StrategyOptimality(p Params) (Report, error) {
	var rows [][]string
	for _, budget := range []int{4, 8, 12, 20, 30} {
		baseSum := uint64(10000)
		cInit := uint64(1)
		cp, c, score := i2i.BestStrategy(baseSum, cInit, budget)
		wantCp, wantC := i2i.OptimalStrategy(budget)
		bound := i2i.AttackScore(baseSum, cInit, wantCp, wantC)
		ok := "yes"
		if cp != wantCp || c != wantC || math.Abs(score-bound) > 1e-15 {
			ok = "NO"
		}
		rows = append(rows, []string{
			fmt.Sprint(budget),
			fmt.Sprintf("C'=%d C=%d", cp, c),
			fmt.Sprintf("C'=%d C=%d", wantCp, wantC),
			fmt.Sprintf("%.6f", score),
			ok,
		})
	}
	var b strings.Builder
	b.WriteString(table([]string{"budget C_b", "exhaustive best", "closed form (Eq 3)", "I2I-score", "match"}, rows))
	b.WriteString("\n(Eq 3: the optimal crowd-worker strategy is one click on the hot item,\n" +
		" every remaining click on the target.)\n")
	return Report{ID: "X1", Title: "Extension — strategy optimality", Text: b.String()}, nil
}

// IncrementalPoint is one day of the streaming-detection extension.
type IncrementalPoint struct {
	Day    int
	Eval   metrics.Eval
	Groups int
}

// RunIncremental (X2) prototypes the paper's future-work direction: run
// RICD day by day on a growing click stream. Background traffic is in place
// from day 0; the attack's fake clicks accumulate linearly over the window,
// so early days see only a fraction of each attacker-target weight. Recall
// must grow as the attack matures — and the experiment reports how early
// each deployment-day catches the campaign.
func RunIncremental(p Params, days int) ([]IncrementalPoint, error) {
	if days < 1 {
		return nil, fmt.Errorf("experiments: days must be ≥ 1, got %d", days)
	}
	ds, err := synth.Generate(p.Dataset)
	if err != nil {
		return nil, err
	}

	var out []IncrementalPoint
	for day := 1; day <= days; day++ {
		frac := float64(day) / float64(days)
		tbl := clicktable.New(ds.Table.Len())
		ds.Table.Each(func(r clicktable.Record) bool {
			w := r.Clicks
			if int(r.UserID) >= ds.NumNormalUsers {
				// Attack traffic accumulates over the window.
				w = uint32(math.Ceil(float64(r.Clicks) * frac))
			}
			tbl.Append(r.UserID, r.ItemID, w)
			return true
		})
		g := tbl.ToGraph()
		d := &core.Detector{Params: p.Detection}
		res, err := d.Detect(g)
		if err != nil {
			return nil, err
		}
		out = append(out, IncrementalPoint{
			Day:    day,
			Eval:   metrics.Evaluate(res, ds.Truth),
			Groups: len(res.Groups),
		})
	}
	return out, nil
}

// Incremental renders the streaming extension.
func Incremental(p Params) (Report, error) {
	points, err := RunIncremental(p, 5)
	if err != nil {
		return Report{}, err
	}
	rows := make([][]string, 0, len(points))
	var recalls []float64
	for _, pt := range points {
		rows = append(rows, []string{
			fmt.Sprint(pt.Day),
			f3(pt.Eval.Precision), f3(pt.Eval.Recall), f3(pt.Eval.F1),
			fmt.Sprint(pt.Groups),
		})
		recalls = append(recalls, pt.Eval.Recall)
	}
	var b strings.Builder
	b.WriteString(table([]string{"day", "P", "R", "F1", "groups"}, rows))
	fmt.Fprintf(&b, "recall shape: %s\n", sparkline(recalls))
	b.WriteString("(Section VIII future work: detection recall grows as the fake-click\n" +
		" stream accumulates — the earlier the sweep, the smaller the damage window.\n" +
		" A late-window dip is possible at T_hot = 1,000: fully matured heavy\n" +
		" campaigns push their targets past the hot threshold — the same\n" +
		" misclassification the paper observes in Fig 9e.)\n")
	return Report{ID: "X2", Title: "Extension — incremental detection", Text: b.String()}, nil
}
