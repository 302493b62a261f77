// Sensitivity sweep: explore how the RICD parameters trade precision
// against recall on a synthetic workload — a miniature of the paper's
// Fig 9 that an operator can rerun against their own traffic before
// choosing production thresholds, optionally finishing with the Fig 7
// feedback loop to hit a target output size.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)

	ds := synth.MustGenerate(synth.SmallConfig())
	base := core.DefaultParams()
	base.THot = 400

	sweep := func(name string, values []float64, mutate func(*core.Params, float64)) {
		fmt.Printf("%s sweep:\n", name)
		fmt.Printf("  %8s %9s %9s %9s %7s\n", name, "precision", "recall", "F1", "groups")
		for _, v := range values {
			p := base
			mutate(&p, v)
			d := &core.Detector{Params: p}
			res, err := d.Detect(ds.Graph)
			if err != nil {
				log.Fatal(err)
			}
			ev := metrics.Evaluate(res, ds.Truth)
			fmt.Printf("  %8v %9.3f %9.3f %9.3f %7d\n",
				v, ev.Precision, ev.Recall, ev.F1, len(res.Groups))
		}
		fmt.Println()
	}

	sweep("k1", []float64{5, 8, 10, 13, 16},
		func(p *core.Params, v float64) { p.K1 = int(v) })
	sweep("k2", []float64{5, 8, 10, 13, 16},
		func(p *core.Params, v float64) { p.K2 = int(v) })
	sweep("alpha", []float64{0.7, 0.8, 0.9, 1.0},
		func(p *core.Params, v float64) { p.Alpha = v })
	sweep("T_click", []float64{10, 12, 14, 16},
		func(p *core.Params, v float64) { p.TClick = uint32(v) })

	// The Fig 7 feedback loop: ask for more output than the strict
	// parameters yield and watch the loop relax T_click, α, k₁/k₂.
	strict := base
	strict.TClick = 18
	fr, err := core.DetectWithFeedbackContext(context.Background(), ds.Graph, strict, ds.Truth.NumAbnormal(), 8, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("feedback loop: started at T_click=18, finished after %d rounds "+
		"with T_click=%d alpha=%.1f k1=%d k2=%d → %d nodes (expectation %d, met=%v)\n",
		fr.Iterations, fr.Params.TClick, fr.Params.Alpha, fr.Params.K1, fr.Params.K2,
		fr.Result.NumNodes(), ds.Truth.NumAbnormal(), fr.MetExpectation)
}
