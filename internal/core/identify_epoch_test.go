package core_test

import (
	"context"
	"reflect"
	"testing"

	fakeclick "repro"
	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/synth"
)

func epochParams() core.Params {
	p := core.DefaultParams()
	p.THot = 400
	return p
}

// publishingDetector is cmd/stream's wiring: every committed sweep compiles
// its result against the graph it examined and publishes the index.
func publishingDetector(t *testing.T, tbl *clicktable.Table, p core.Params) (*stream.Detector, *serve.Store) {
	t.Helper()
	det, err := stream.New(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore(nil)
	det.OnCommit = func(res *detect.Result, g *bipartite.Graph) {
		if err := store.Publish(serve.Compile(g, res, p.THot, p.TClick)); err != nil {
			t.Error(err)
		}
	}
	return det, store
}

// servedInIdentifiedOrder requires every served group to carry a Module 3
// score and the groups to be numbered most suspicious first.
func servedInIdentifiedOrder(t *testing.T, what string, ix *serve.Index) {
	t.Helper()
	if ix.NumGroups() == 0 {
		t.Fatalf("%s serves no groups; the check would be vacuous", what)
	}
	prev := 0.0
	for n := 1; n <= ix.NumGroups(); n++ {
		grp, _ := ix.Group(n)
		if grp.Score <= 0 {
			t.Errorf("%s: group %d is served with score %v", what, n, grp.Score)
		}
		if n > 1 && grp.Score > prev {
			t.Errorf("%s: group %d (score %v) outranks group %d (score %v)", what, n, grp.Score, n-1, prev)
		}
		prev = grp.Score
	}
}

// TestSweepAndRefreshServeTheSameIdentifiedEpoch: for one detector state the
// epoch a sweep publishes and the epoch a full refresh publishes answer
// Group, User and Item identically — same groups under the same numbers with
// the same non-zero scores — and an incremental sweep's epoch is identified
// too.
func TestSweepAndRefreshServeTheSameIdentifiedEpoch(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	p := epochParams()
	det, store := publishingDetector(t, ds.Table, p)
	ctx := context.Background()

	if _, err := det.SweepContext(ctx); err != nil {
		t.Fatal(err)
	}
	swept := store.Current()
	servedInIdentifiedOrder(t, "sweep epoch", swept)

	res, err := det.FullDetectContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g := det.Graph()
	refreshed := serve.Compile(g, res, p.THot, p.TClick)
	if err := store.Publish(refreshed); err != nil {
		t.Fatal(err)
	}
	if a, b := swept.NumGroups(), refreshed.NumGroups(); a != b {
		t.Fatalf("sweep epoch serves %d groups, refresh epoch %d", a, b)
	}
	for n := 1; n <= refreshed.NumGroups(); n++ {
		a, _ := swept.Group(n)
		b, _ := refreshed.Group(n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("group %d: sweep epoch serves %d×%d score %v, refresh epoch %d×%d score %v",
				n, len(a.Users), len(a.Items), a.Score, len(b.Users), len(b.Items), b.Score)
		}
	}
	for id := uint32(0); id < uint32(g.NumUsers()); id++ {
		if a, b := swept.User(id), refreshed.User(id); !reflect.DeepEqual(a, b) {
			t.Fatalf("user %d: sweep epoch %+v, refresh epoch %+v", id, a, b)
		}
	}
	for id := uint32(0); id < uint32(g.NumItems()); id++ {
		if a, b := swept.Item(id), refreshed.Item(id); !reflect.DeepEqual(a, b) {
			t.Fatalf("item %d: sweep epoch %+v, refresh epoch %+v", id, a, b)
		}
	}

	// An incremental sweep re-screens the carried groups; its epoch carries
	// Module 3 scores like any other.
	atk := ds.Groups[0]
	det.AddClick(atk.Attackers[0], atk.Targets[0], 1)
	if _, err := det.SweepContext(ctx); err != nil {
		t.Fatal(err)
	}
	if store.Epoch() != 3 {
		t.Fatalf("epoch = %d after sweep, refresh, sweep", store.Epoch())
	}
	servedInIdentifiedOrder(t, "incremental sweep epoch", store.Current())
}

// TestEveryPublishedEpochIsRankedOnce counts RankResult executions per
// published epoch on every path from a detection to the store.
func TestEveryPublishedEpochIsRankedOnce(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	p := epochParams()
	ctx := context.Background()

	facadeGraph := fakeclick.NewGraph()
	ds.Table.Each(func(r clicktable.Record) bool {
		facadeGraph.AddClicks(r.UserID, r.ItemID, r.Clicks)
		return true
	})
	facadeConfig := func(store *serve.Store) fakeclick.Config {
		cfg := fakeclick.DefaultConfig()
		cfg.THot, cfg.TClick = p.THot, p.TClick
		cfg.Serve = store
		return cfg
	}

	// Each path publishes exactly one epoch into the store it returns.
	paths := []struct {
		name string
		run  func(t *testing.T) *serve.Store
	}{
		{"stream sweep, OnCommit, Compile, Publish", func(t *testing.T) *serve.Store {
			det, store := publishingDetector(t, ds.Table, p)
			if _, err := det.SweepContext(ctx); err != nil {
				t.Fatal(err)
			}
			return store
		}},
		{"FullDetectContext, Compile, Publish", func(t *testing.T) *serve.Store {
			det, err := stream.New(ds.Table, p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := det.FullDetectContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			store := serve.NewStore(nil)
			if err := store.Publish(serve.Compile(det.Graph(), res, p.THot, p.TClick)); err != nil {
				t.Fatal(err)
			}
			return store
		}},
		{"facade Detect with Config.Serve", func(t *testing.T) *serve.Store {
			store := serve.NewStore(nil)
			if _, err := fakeclick.Detect(facadeGraph, facadeConfig(store)); err != nil {
				t.Fatal(err)
			}
			return store
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			passes := 0
			core.SetRankHook(func() { passes++ })
			defer core.SetRankHook(nil)
			store := path.run(t)
			if store.Epoch() != 1 {
				t.Fatalf("published %d epochs, want 1", store.Epoch())
			}
			servedInIdentifiedOrder(t, "the epoch", store.Current())
			if passes != 1 {
				t.Errorf("RankResult ran %d times for one published epoch, want 1", passes)
			}
		})
	}
}
