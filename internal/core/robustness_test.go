package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/synth"
)

// assertPartial checks the graceful-degradation contract: a cut-short run
// returns a well-formed non-nil result tagged partial, naming the stage
// that was interrupted.
func assertPartial(t *testing.T, res *detect.Result, err, wantErr error, wantStage string) {
	t.Helper()
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if res == nil {
		t.Fatal("cut-short run returned a nil result")
	}
	if !res.Partial {
		t.Error("result not tagged Partial")
	}
	if res.StageReached != wantStage {
		t.Errorf("StageReached = %q, want %q", res.StageReached, wantStage)
	}
	if res.Elapsed <= 0 {
		t.Error("partial result has no Elapsed timing")
	}
	// A partial result must still be structurally sound: every reported
	// group has both sides populated.
	for i, grp := range res.Groups {
		if len(grp.Users) == 0 || len(grp.Items) == 0 {
			t.Errorf("partial group %d is malformed: %d users, %d items",
				i, len(grp.Users), len(grp.Items))
		}
	}
}

// TestDetectContextCancelAtEverySite arms a context cancel at every named
// interruption checkpoint of the batch pipeline and asserts each yields a
// well-formed partial result attributing the right stage.
func TestDetectContextCancelAtEverySite(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	cases := []struct {
		site      string
		wantStage string
	}{
		{"core.hotset", "hotset"},
		{"core.graph_generator", "graph_generator"},
		{"core.extraction", "extraction"},
		{"core.prune.round", "extraction"},
		{"core.frontier", "extraction"},
		{"core.extract", "extraction"},
		{"core.screening", "screening"},
		{"core.screen.group", "screening"},
		{"core.identification", "identification"},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			defer faultinject.Reset()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			faultinject.Arm(tc.site, faultinject.Fault{Do: cancel, Times: 1})

			d := &Detector{Params: smallParams()}
			res, err := d.DetectContext(ctx, ds.Graph)
			if faultinject.HitCount(tc.site) == 0 {
				t.Fatalf("site %q never reached", tc.site)
			}
			assertPartial(t, res, err, context.Canceled, tc.wantStage)
		})
	}
}

// TestDetectContextPanicIsStageError arms a panic at every stage boundary,
// and inside the square rounds' workers, and asserts it surfaces as a
// *detect.StageError naming the stage — never as a process crash —
// alongside a partial result.
func TestDetectContextPanicIsStageError(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	type panicCase struct {
		name, stage string
		workers     int
		arm         func()
	}
	var cases []panicCase
	for _, stage := range []string{"hotset", "graph_generator", "extraction", "screening", "identification"} {
		cases = append(cases, panicCase{stage, stage, 0, func() {
			faultinject.Arm("core."+stage, faultinject.Fault{Panic: "injected bug", Times: 1})
		}})
	}
	// Every user test panics, on every worker of a round: the workers
	// parallelFilter starts must hand their panics to the stage too.
	cases = append(cases, panicCase{"square_round", "extraction", 8, func() {
		testSquareEvalHook = func(side bipartite.Side, _ bipartite.NodeID) {
			if side == bipartite.UserSide {
				panic("injected bug")
			}
		}
	}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer faultinject.Reset()
			defer func() { testSquareEvalHook = nil }()
			c.arm()

			d := &Detector{Params: smallParams()}
			d.Params.Workers = c.workers
			res, err := d.DetectContext(context.Background(), ds.Graph)
			var se *detect.StageError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want a *detect.StageError", err)
			}
			if se.Stage != c.stage {
				t.Errorf("StageError.Stage = %q, want %q", se.Stage, c.stage)
			}
			if se.Panic != "injected bug" {
				t.Errorf("StageError.Panic = %v, want the injected value", se.Panic)
			}
			if res == nil || !res.Partial {
				t.Error("panicking stage did not yield a partial result")
			}
		})
	}
}

// TestDetectContextCancelledExtractionReportsNoGroups: a run cancelled
// mid-pruning must not report groups cut from a half-pruned residual graph
// — those would be organic users misclassified by an incomplete fixpoint.
func TestDetectContextCancelledExtractionReportsNoGroups(t *testing.T) {
	defer faultinject.Reset()
	ds := synth.MustGenerate(synth.SmallConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Let one round pass, then cancel: the fixpoint is genuinely unreached.
	faultinject.Arm("core.prune.round", faultinject.Fault{Do: cancel, Times: 1})

	d := &Detector{Params: smallParams()}
	res, err := d.DetectContext(ctx, ds.Graph)
	assertPartial(t, res, err, context.Canceled, "extraction")
	if len(res.Groups) != 0 {
		t.Errorf("cancelled extraction reported %d groups from a half-pruned graph", len(res.Groups))
	}
}

// disjointBicliques builds a graph of n separate k×k bicliques of edge
// weight w: extraction yields one candidate group per biclique, giving the
// screening loop n distinct interruption checkpoints.
func disjointBicliques(n, k int, w uint32) *bipartite.Graph {
	b := bipartite.NewBuilder(n*k, n*k)
	for c := 0; c < n; c++ {
		for u := 0; u < k; u++ {
			for v := 0; v < k; v++ {
				b.Add(bipartite.NodeID(c*k+u), bipartite.NodeID(c*k+v), w)
			}
		}
	}
	return b.Build()
}

// TestDetectContextCancelledScreeningKeepsScreenedPrefix: groups fully
// screened before the cancel stay in the partial result and still satisfy
// the size bounds (each survived the full screening pipeline).
func TestDetectContextCancelledScreeningKeepsScreenedPrefix(t *testing.T) {
	defer faultinject.Reset()
	g := disjointBicliques(3, 12, 15)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Screen two groups, then cancel at the third checkpoint. The site is
	// hit from the screening workers, so the count is atomic.
	var calls atomic.Int32
	faultinject.Arm("core.screen.group", faultinject.Fault{Do: func() {
		if calls.Add(1) == 3 {
			cancel()
		}
	}})

	p := smallParams()
	d := &Detector{Params: p}
	res, err := d.DetectContext(ctx, g)
	assertPartial(t, res, err, context.Canceled, "screening")
	if len(res.Groups) == 0 {
		t.Error("no fully-screened group survived in the partial result")
	}
	for i, grp := range res.Groups {
		if len(grp.Users) < p.K1 || len(grp.Items) < p.K2 {
			t.Errorf("partially-screened output group %d violates size bounds: %d×%d",
				i, len(grp.Users), len(grp.Items))
		}
	}
}

// TestRICDIScreeningHonorsCancellation: RICD-I's screening loop checks ctx
// before each group, like full screening, so a cancel there is reported as
// the screening stage and keeps only groups that were fully screened.
func TestRICDIScreeningHonorsCancellation(t *testing.T) {
	defer faultinject.Reset()
	g := disjointBicliques(3, 12, 15)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm("core.screen.group", faultinject.Fault{Do: cancel, Times: 1})

	p := smallParams()
	res, err := (&Detector{Params: p, Variant: VariantI}).DetectContext(ctx, g)
	if faultinject.HitCount("core.screen.group") == 0 {
		t.Fatal("RICD-I screening never reached core.screen.group")
	}
	assertPartial(t, res, err, context.Canceled, "screening")
	for i, grp := range res.Groups {
		if len(grp.Users) < p.K1 || len(grp.Items) < p.K2 {
			t.Errorf("partially-screened output group %d violates size bounds: %d×%d",
				i, len(grp.Users), len(grp.Items))
		}
	}
}

// TestDetectContextCompleteRunHitsAllSites records a full run and checks
// every pipeline checkpoint actually fires — guarding against a refactor
// silently dropping an interruption point.
func TestDetectContextCompleteRunHitsAllSites(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Record()
	ds := synth.MustGenerate(synth.SmallConfig())
	d := &Detector{Params: smallParams()}
	res, err := d.DetectContext(context.Background(), ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Error("unhindered run tagged partial")
	}
	for _, site := range []string{
		"core.hotset", "core.graph_generator", "core.extraction",
		"core.prune.round", "core.frontier", "core.extract",
		"core.screening", "core.screen.group", "core.identification",
	} {
		if faultinject.HitCount(site) == 0 {
			t.Errorf("site %q never hit during a full run", site)
		}
	}
}

// TestFeedbackLoopCancellation: the context budget covers the whole
// feedback loop; cancelling between iterations keeps the last complete
// result and its matching parameters.
func TestFeedbackLoopCancellation(t *testing.T) {
	defer faultinject.Reset()
	ds := synth.MustGenerate(synth.SmallConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// First iteration runs clean; cancel arriving at the second checkpoint.
	calls := 0
	faultinject.Arm("core.feedback.round", faultinject.Fault{Do: func() {
		calls++
		if calls == 2 {
			cancel()
		}
	}})

	p := smallParams()
	// An absurd expectation keeps the loop relaxing until the budget dies.
	fr, err := DetectWithFeedbackContext(ctx, ds.Graph, p, 1<<30, 10, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fr.Result == nil {
		t.Fatal("interrupted feedback loop returned no result")
	}
	if fr.Result.Partial {
		t.Error("first iteration completed; its result must not be partial")
	}
	if !reflect.DeepEqual(fr.Params, p) {
		t.Errorf("returned params %+v do not match the completed run's %+v", fr.Params, p)
	}
}

// TestFeedbackLoopCancelledBeforeFirstRun: with no completed iteration the
// loop synthesizes an empty partial result rather than returning nil.
func TestFeedbackLoopCancelledBeforeFirstRun(t *testing.T) {
	defer faultinject.Reset()
	ds := synth.MustGenerate(synth.SmallConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	fr, err := DetectWithFeedbackContext(ctx, ds.Graph, smallParams(), 10, 3, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fr.Result == nil || !fr.Result.Partial {
		t.Errorf("want a synthesized partial result, got %+v", fr.Result)
	}
}

// TestPruneCtxCancelledGraphStaysSound: a cancelled prune leaves a valid
// intermediate graph (pruning is monotone), not a corrupted one — every
// still-live edge must connect two live endpoints.
func TestPruneCtxCancelledGraphStaysSound(t *testing.T) {
	defer faultinject.Reset()
	g := plantedGraph(40, 20, 15, 200, 100, 800, 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm("core.prune.round", faultinject.Fault{Do: cancel, Times: 1})

	_, err := PruneCtx(ctx, g, smallParams(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	g.EachLiveUser(func(u uint32) bool {
		g.EachUserNeighbor(u, func(v uint32, _ uint32) bool {
			if !g.ItemAlive(v) {
				t.Fatalf("live user %d has edge to dead item %d after cancelled prune", u, v)
			}
			return true
		})
		return true
	})
}
