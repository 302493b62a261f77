package core

import (
	"context"
	"testing"

	"repro/internal/synth"
)

func benchDataset(b *testing.B) *synth.Dataset {
	b.Helper()
	return synth.MustGenerate(synth.SmallConfig())
}

func BenchmarkPruneSmall(b *testing.B) {
	ds := benchDataset(b)
	p := smallParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := ds.Graph.Clone()
		Prune(g, p)
	}
}

func BenchmarkDetectSmall(b *testing.B) {
	ds := benchDataset(b)
	d := &Detector{Params: smallParams()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Detect(ds.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScreenGroupsSmall(b *testing.B) {
	ds := benchDataset(b)
	p := smallParams()
	ui := &Detector{Params: p, Variant: VariantUI}
	res, err := ui.Detect(ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	hot := ComputeHotSet(ds.Graph, p.THot)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScreenGroups(ds.Graph, res.Groups, hot, p)
	}
}

// BenchmarkSquareRoundCounterReuse isolates the counter-pooling win: a
// square round over a stable biclique (no victims, so no output growth)
// with a warm pool allocates zero counter state — before pooling, every
// round built a fresh graph-sized commonCounter per worker. The alloc
// report pins the steady-state claim of BENCH_frontier.json: the one
// residual alloc (112 B) is the predicate closure, not counter state.
func BenchmarkSquareRoundCounterReuse(b *testing.B) {
	g := plantedGraph(40, 40, 3, 0, 0, 0, 1)
	p := params(10, 10, 1.0)
	p.Workers = 1
	pool := newCounterPool(g.NumUsers(), g.NumItems())
	ids := g.LiveUserIDs()
	ctx := context.Background()
	wide := newWideMasks(g)
	wide.refresh(g)
	squareRoundUsers(ctx, g, p, ids, pool, wide) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		squareRoundUsers(ctx, g, p, ids, pool, wide)
	}
}

// BenchmarkPruneLadderFrontier compares the dirty-frontier fixpoint with
// the full-rescan loop on the rounds-heavy ladder (~ layers/2 rounds of
// small removals, the regime the frontier is built for).
func BenchmarkPruneLadderFrontier(b *testing.B) {
	base := synth.LadderGraph(120, 6, 6)
	k1, k2, alpha := synth.LadderParams(6, 6)
	run := func(b *testing.B, noFrontier bool) {
		p := params(k1, k2, alpha)
		p.NoFrontier = noFrontier
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := base.Clone()
			Prune(g, p)
		}
	}
	b.Run("frontier", func(b *testing.B) { run(b, false) })
	b.Run("rescan", func(b *testing.B) { run(b, true) })
}

func BenchmarkNaiveSmall(b *testing.B) {
	ds := benchDataset(b)
	d := &NaiveDetector{Params: smallParams()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Detect(ds.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRankResult(b *testing.B) {
	ds := benchDataset(b)
	d := &Detector{Params: smallParams()}
	res, err := d.Detect(ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RankResult(ds.Graph, res)
	}
}

func BenchmarkDeriveThresholds(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeriveThresholds(ds.Graph)
	}
}
