// Benchmark harness: one benchmark per table and figure of the paper (see
// DESIGN.md §4 for the experiment index) plus per-detector and ablation
// benchmarks for the design choices DESIGN.md calls out. Regenerate all
// artifacts with:
//
//	go test -bench=. -benchmem
package fakeclick_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/baselines"
	"repro/internal/baselines/cn"
	"repro/internal/baselines/copycatch"
	"repro/internal/baselines/fraudar"
	"repro/internal/baselines/louvain"
	"repro/internal/baselines/lpa"
	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/stream"
	"repro/internal/synth"
)

var (
	benchOnce sync.Once
	benchDS   *synth.Dataset
)

// benchDataset lazily builds the default 1:1000-scale dataset shared by
// every benchmark (generation itself is benchmarked separately).
func benchDataset(b *testing.B) *synth.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchDS = synth.MustGenerate(synth.DefaultConfig())
	})
	return benchDS
}

func benchParams() experiments.Params { return experiments.DefaultParams() }

// --- dataset substrate ------------------------------------------------------

func BenchmarkDatasetGeneration(b *testing.B) {
	cfg := synth.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphBuild(b *testing.B) {
	ds := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Table.ToGraph()
	}
}

// --- Table I / Table II / Figure 2 ------------------------------------------

func BenchmarkTableI(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Table.Scale()
	}
}

func BenchmarkTableII(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = clicktable.ComputeStats(ds.Table)
	}
}

func BenchmarkFigure2(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bipartite.Histogram(ds.Graph, bipartite.ItemSide)
		_ = bipartite.Histogram(ds.Graph, bipartite.UserSide)
	}
}

// --- Figure 8: per-detector benchmarks (Fig 8b's bars) -----------------------

func benchDetector(b *testing.B, d detect.Detector) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Detect(ds.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectRICD(b *testing.B) {
	benchDetector(b, &core.Detector{Params: core.DefaultParams()})
}

func BenchmarkDetectNaive(b *testing.B) {
	p := core.DefaultParams()
	benchDetector(b, &baselines.Screened{Inner: &core.NaiveDetector{Params: p}, Params: p})
}

func BenchmarkDetectLPA(b *testing.B) {
	p := core.DefaultParams()
	benchDetector(b, &baselines.Screened{Inner: lpa.DefaultDetector(p.K1, p.K2), Params: p})
}

func BenchmarkDetectCN(b *testing.B) {
	p := core.DefaultParams()
	benchDetector(b, &baselines.Screened{Inner: cn.DefaultDetector(p.K1, p.K2), Params: p})
}

func BenchmarkDetectLouvain(b *testing.B) {
	p := core.DefaultParams()
	benchDetector(b, &baselines.Screened{Inner: louvain.DefaultDetector(p.K1, p.K2), Params: p})
}

func BenchmarkDetectCopyCatch(b *testing.B) {
	p := core.DefaultParams()
	benchDetector(b, &baselines.Screened{Inner: copycatch.DefaultDetector(p.K1, p.K2), Params: p})
}

func BenchmarkDetectFraudar(b *testing.B) {
	p := core.DefaultParams()
	benchDetector(b, &baselines.Screened{Inner: fraudar.DefaultDetector(p.K1, p.K2), Params: p})
}

// --- whole-artifact benchmarks ----------------------------------------------

func BenchmarkFigure8a(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure8(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTableVI(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure9(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure10(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExposure(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunExposure(p, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (DESIGN.md X3) --------------------------------------

// BenchmarkSeededVsUnseeded measures the speedup of Algorithm 2's seed-based
// graph pruning.
func BenchmarkSeededVsUnseeded(b *testing.B) {
	ds := benchDataset(b)
	seed := detect.Seeds{Users: []bipartite.NodeID{ds.Groups[0].Attackers[0]}}
	b.Run("unseeded", func(b *testing.B) {
		d := &core.Detector{Params: core.DefaultParams()}
		for i := 0; i < b.N; i++ {
			if _, err := d.Detect(ds.Graph); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seeded", func(b *testing.B) {
		d := &core.Detector{Params: core.DefaultParams(), Seeds: seed}
		for i := 0; i < b.N; i++ {
			if _, err := d.Detect(ds.Graph); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSquarePruningWorkers ablates the parallel batch rounds of the
// square-pruning stage.
func BenchmarkSquarePruningWorkers(b *testing.B) {
	ds := benchDataset(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			p := core.DefaultParams()
			p.Workers = workers
			for i := 0; i < b.N; i++ {
				g := ds.Graph.Clone()
				if _, err := core.PruneCtx(context.Background(), g, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectSharded measures the component-sharded detection pipeline
// end to end (prune → shard plan → per-component square pruning/extraction →
// deterministic merge → screening) across worker counts. The reference
// model's time on the same dataset is internal/core's
// BenchmarkDetectReference.
func BenchmarkDetectSharded(b *testing.B) {
	ds := benchDataset(b)
	seen := make(map[int]bool)
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			p := core.DefaultParams()
			p.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := &core.Detector{Params: p}
				if _, err := d.Detect(ds.Graph); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScreeningOnly isolates the UI module's cost (the small stack
// segment of Fig 8b).
func BenchmarkScreeningOnly(b *testing.B) {
	ds := benchDataset(b)
	p := core.DefaultParams()
	ui := &core.Detector{Params: p, Variant: core.VariantUI}
	res, err := ui.Detect(ds.Graph)
	if err != nil {
		b.Fatal(err)
	}
	hot := core.ComputeHotSet(ds.Graph, p.THot)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScreenGroupsCtx(context.Background(), ds.Graph, res.Groups, hot, p, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedbackLoop measures the Fig 7 parameter-adjustment loop under
// an unreachable expectation (worst case: every relaxation runs).
func BenchmarkFeedbackLoop(b *testing.B) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectWithFeedbackContext(context.Background(), ds.Graph, core.DefaultParams(), 1<<30, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalVsFull compares one incremental sweep (100 streamed
// events + dirty-region detection) against a from-scratch batch detection —
// the Section VIII future-work payoff.
func BenchmarkIncrementalVsFull(b *testing.B) {
	ds := benchDataset(b)
	newDetector := func(b *testing.B) *stream.Detector {
		d, err := stream.New(ds.Table, core.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		// The first sweep detects on the whole initial table and retires it
		// from the dirty set, so each timed sweep sees only its own clicks.
		if _, err := d.SweepContext(context.Background()); err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("incremental-sweep", func(b *testing.B) {
		d := newDetector(b)
		rng := uint32(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for e := 0; e < 100; e++ {
				rng = rng*1664525 + 1013904223
				d.AddClick(rng%uint32(ds.NumNormalUsers), rng>>16%uint32(ds.NumNormalItems), 1)
			}
			if _, err := d.SweepContext(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-batch", func(b *testing.B) {
		d := newDetector(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.FullDetectContext(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
