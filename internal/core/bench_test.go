package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/detect"
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
		prune(g, p)
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
		screenGroups(ds.Graph, res.Groups, hot, p)
	}
}

// BenchmarkSquareRoundCounterReuse isolates the counter-pooling win: a
// square round over a stable biclique (no victims, so no output growth)
// with a warm pool allocates zero counter state — before pooling, every
// round built a fresh graph-sized commonCounter per worker. The residual
// allocs (6, 330 B) are the predicate closure, parallelFilter's per-round
// keep slice and body closure, and parallelFor's cursor, WaitGroup and
// worker slice — O(candidates) bytes, not counter state.
func BenchmarkSquareRoundCounterReuse(b *testing.B) {
	g := plantedGraph(40, 40, 3, 0, 0, 0, 1)
	p := params(10, 10, 1.0)
	p.Workers = 1
	pool := newCounterPool(g.NumUsers(), g.NumItems())
	ids := g.LiveUserIDs()
	ctx := context.Background()
	wide := newWideMasks(g, ceilMul(p.K2, p.Alpha))
	wide.refresh(g, ceilMul(p.K2, p.Alpha))
	// Fresh certificates every round: every user is walked, as in round 1.
	cert := newCertificates(g.NumUsers(), p.K1)
	round := func() {
		for u := range cert.lost {
			cert.lost[u] = true
		}
		squareRoundUsers(ctx, g, p, ids, pool, wide, cert)
	}
	round() // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// benchPrune times one form of Algorithm 3 on fresh clones of base.
func benchPrune(base *bipartite.Graph, p Params, pruneFn func(*bipartite.Graph, Params) PruneStats) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pruneFn(base.Clone(), p)
		}
	}
}

// BenchmarkPruneLadderFrontier compares the certified fixpoint with the
// reference's rescan on the rounds-heavy ladder (~ layers/2 rounds of small
// removals). Both take every live vertex every round; the fixpoint walks only
// the vertices whose certificates no longer hold.
func BenchmarkPruneLadderFrontier(b *testing.B) {
	base := synth.LadderGraph(120, 6, 6)
	k1, k2, alpha := synth.LadderParams(6, 6)
	b.Run("frontier", benchPrune(base, params(k1, k2, alpha), prune))
	b.Run("rescan", benchPrune(base, params(k1, k2, alpha), refPrune))
}

// BenchmarkPruningAblation compares the literal single-pass Algorithm 3
// against the fixpoint iteration the reproduction runs.
func BenchmarkPruningAblation(b *testing.B) {
	ds := synth.MustGenerate(synth.DefaultConfig())
	b.Run("fixpoint", benchPrune(ds.Graph, DefaultParams(), prune))
	b.Run("single-pass", benchPrune(ds.Graph, DefaultParams(), refPruneSinglePass))
}

// BenchmarkDetectReference times the reference model end to end, the
// baseline for the root package's BenchmarkDetectSharded worker sweep.
func BenchmarkDetectReference(b *testing.B) {
	ds := synth.MustGenerate(synth.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refDetect(ds.Graph, DefaultParams())
	}
}

// batchShape is the batch_detect benchmark's marketplace: DefaultConfig at
// twice its attack density (16 crews). Its residual after core pruning is one
// giant component, so square pruning is nearly all of a detection.
func batchShape() *synth.Dataset {
	cfg := synth.DefaultConfig()
	cfg.Attack.Groups = 16
	return synth.MustGenerate(cfg)
}

// BenchmarkDetectBatchShape times one batch detection of batchShape, so the
// fixpoint kernel can be timed without the benchmark harness: Workers 0 uses
// every core, Workers 1 is its serial twin.
func BenchmarkDetectBatchShape(b *testing.B) {
	ds := batchShape()
	for _, workers := range []int{0, 1} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			d := &Detector{Params: DefaultParams()}
			d.Params.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.DetectContext(context.Background(), ds.Graph); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// blocksShape is the blocks_resweep benchmark's graph: 24 disjoint bicliques
// of 600 users × 16 items, block k's arcs of weight TClick + k, under a THot
// above every item's clicks. Core pruning removes nothing and each block is
// one shard, so a detection is the 24-shard path: compaction, a fixpoint and
// extraction per block.
func blocksShape() (*bipartite.Graph, Params) {
	const blocks, users, items = 24, 600, 16
	p := DefaultParams()
	p.THot = 1 << 20
	gb := bipartite.NewBuilder(blocks*users, blocks*items)
	for k := range blocks {
		for u := range users {
			for v := range items {
				gb.Add(bipartite.NodeID(k*users+u), bipartite.NodeID(k*items+v), p.TClick+uint32(k))
			}
		}
	}
	return gb.Build(), p
}

// BenchmarkDetectBlocksShape times one batch detection of blocksShape, the
// 24-shard path without the benchmark harness, at Workers 0 and 1.
func BenchmarkDetectBlocksShape(b *testing.B) {
	g, p := blocksShape()
	for _, workers := range []int{0, 1} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			d := &Detector{Params: p}
			d.Params.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.DetectContext(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectScaled times one detection of DefaultConfig with users and
// items multiplied by ×1, ×3 and ×10, at Workers 1 and 0, to record how
// detection cost grows with the marketplace (ROADMAP items 5 and 15). The
// ×10 marketplace takes a few seconds to generate and about a second to
// detect, so CI's bench smoke leaves it out; run it with
//
//	go test -run=NONE -bench=DetectScaled -benchtime=3x ./internal/core
func BenchmarkDetectScaled(b *testing.B) {
	for _, scale := range []int{1, 3, 10} {
		cfg := synth.DefaultConfig()
		cfg.NumUsers *= scale
		cfg.NumItems *= scale
		var ds *synth.Dataset
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("x%d/workers=%d", scale, workers), func(b *testing.B) {
				if ds == nil {
					ds = synth.MustGenerate(cfg)
				}
				d := &Detector{Params: DefaultParams()}
				d.Params.Workers = workers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.DetectContext(context.Background(), ds.Graph); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(ds.Graph.LiveEdges()), "edges")
			})
		}
	}
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

// BenchmarkRankResult ranks the small dataset's detection and the
// blocks_resweep epoch's shape: blocksShape's 24 disjoint bicliques of 600
// users × 16 items, every member suspicious.
func BenchmarkRankResult(b *testing.B) {
	b.Run("small", func(b *testing.B) {
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
	})
	b.Run("blocks", func(b *testing.B) {
		g, _ := blocksShape()
		res := &detect.Result{}
		for _, c := range bipartite.ConnectedComponents(g) {
			res.Groups = append(res.Groups, detect.Group{Users: c.Users, Items: c.Items})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RankResult(g, res)
		}
	})
}

func BenchmarkDeriveThresholds(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeriveThresholds(ds.Graph)
	}
}
