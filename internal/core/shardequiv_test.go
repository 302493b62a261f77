package core

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/synth"
)

// This file is the golden-oracle equivalence harness for the detection
// pipeline — component sharding (shard.go), the dirty-frontier pruning loop
// and the wide-item masks (prune.go): across a corpus of ≥ 20 seeded
// synthetic workloads of varied shape and worker counts {1, 2, 8}, it must
// return exactly what the reference model (reference_test.go: monolithic
// full-rescan fixpoint, plain 2-hop walks) returns — same groups in the same
// order, same membership order, same risk scores, same per-group statistics,
// same pruning stats including Rounds.

// equivCorpus returns the shared seeded workload corpus
// (synth.EquivCorpus): varied marketplace sizes, attack-group counts and
// near-biclique participation, so the harness covers many-component
// residuals, single-component residuals, and empty results.
func equivCorpus() []synth.Config { return synth.EquivCorpus() }

// equivParams varies the detection knobs across the corpus so the harness
// covers α < 1, relaxed size bounds, and the tiny marketplace's hot range.
func equivParams(i int, cfg synth.Config) Params {
	p := smallParams()
	switch i % 3 {
	case 1:
		p.Alpha = 0.8
	case 2:
		p.K1, p.K2 = 8, 8
	}
	if cfg.NumUsers < 1000 {
		p.THot = 200
	}
	return p
}

func TestShardedDetectionMatchesSerialOracle(t *testing.T) {
	cfgs := equivCorpus()
	if len(cfgs) < 20 {
		t.Fatalf("corpus has %d workloads, want ≥ 20", len(cfgs))
	}
	totalGroups := 0
	for i, cfg := range cfgs {
		ds := synth.MustGenerate(cfg)
		base := equivParams(i, cfg)

		oracle := refDetect(ds.Graph, base)
		totalGroups += len(oracle.Groups)

		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("workload%02d/w%d", i, workers), func(t *testing.T) {
				p := base
				p.Workers = workers
				res, err := (&Detector{Params: p}).Detect(ds.Graph)
				if err != nil {
					t.Fatalf("sharded detect: %v", err)
				}
				if len(res.Groups) != len(oracle.Groups) {
					t.Fatalf("groups = %d, oracle has %d", len(res.Groups), len(oracle.Groups))
				}
				for gi := range oracle.Groups {
					want, got := oracle.Groups[gi], res.Groups[gi]
					if !reflect.DeepEqual(got.Users, want.Users) {
						t.Errorf("group %d users diverge:\n got %v\nwant %v", gi, got.Users, want.Users)
					}
					if !reflect.DeepEqual(got.Items, want.Items) {
						t.Errorf("group %d items diverge:\n got %v\nwant %v", gi, got.Items, want.Items)
					}
					if got.Score != want.Score {
						t.Errorf("group %d score = %v, oracle %v", gi, got.Score, want.Score)
					}
					// Same members against the same graph must yield
					// byte-identical forensic statistics.
					if ComputeGroupStats(ds.Graph, got) != ComputeGroupStats(ds.Graph, want) {
						t.Errorf("group %d stats diverge", gi)
					}
				}
				if !reflect.DeepEqual(res.Users(), oracle.Users()) {
					t.Error("suspicious user sets diverge")
				}
				if !reflect.DeepEqual(res.Items(), oracle.Items()) {
					t.Error("suspicious item sets diverge")
				}
			})
		}
	}
	if totalGroups == 0 {
		t.Fatal("corpus is vacuous: the serial oracle found no groups anywhere")
	}
	t.Logf("oracle found %d groups across %d workloads", totalGroups, len(cfgs))
}

// TestShardedPruneLeavesOracleResidual pins the other half of the contract:
// not just the reported groups but the residual graph itself — PruneCtx at
// every worker count must leave exactly the reference fixpoint, with
// identical PruneStats (Rounds included) and an identical removal
// epoch (same number of removals applied, clone-inherited base cancelling
// out).
func TestShardedPruneLeavesOracleResidual(t *testing.T) {
	for i, cfg := range equivCorpus()[:6] {
		ds := synth.MustGenerate(cfg)
		p := equivParams(i, cfg)

		serial := ds.Graph.Clone()
		stSerial := refPrune(serial, p)

		check := func(name string, pp Params) {
			g := ds.Graph.Clone()
			st := prune(g, pp)
			if stSerial != st {
				t.Errorf("workload %d %s: stats = %+v, oracle %+v", i, name, st, stSerial)
			}
			if !reflect.DeepEqual(g.LiveUserIDs(), serial.LiveUserIDs()) {
				t.Errorf("workload %d %s: surviving users diverge", i, name)
			}
			if !reflect.DeepEqual(g.LiveItemIDs(), serial.LiveItemIDs()) {
				t.Errorf("workload %d %s: surviving items diverge", i, name)
			}
			if g.RemovalEpoch() != serial.RemovalEpoch() {
				t.Errorf("workload %d %s: removal epoch %d, oracle %d",
					i, name, g.RemovalEpoch(), serial.RemovalEpoch())
			}
		}
		for _, w := range []int{1, 2, 8} {
			pp := p
			pp.Workers = w
			check(fmt.Sprintf("w%d", w), pp)
		}
	}
}

// sameResults compares two detection results group-for-group (members,
// order, scores) plus the flattened suspicious sets.
func sameResults(t *testing.T, label string, want, got *detect.Result) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, want %d", label, len(got.Groups), len(want.Groups))
	}
	for gi := range want.Groups {
		w, g := want.Groups[gi], got.Groups[gi]
		if !reflect.DeepEqual(g.Users, w.Users) || !reflect.DeepEqual(g.Items, w.Items) || g.Score != w.Score {
			t.Fatalf("%s: group %d diverged", label, gi)
		}
	}
	if !reflect.DeepEqual(got.Users(), want.Users()) || !reflect.DeepEqual(got.Items(), want.Items()) {
		t.Fatalf("%s: suspicious sets diverged", label)
	}
}

// TestCachedDetectionMatchesOracle pins that nothing a Detector or its
// pooled scratch keeps between detections changes a verdict. The test is
// named for the component verdict cache a Detector could once carry; the
// cache is gone, and the scratch pools (the prune workers' buffers, the
// screening membership marks) are what persists now. Per workload one
// Detector runs a cold detection, a warm one over the same graph, one over
// the previous workload's graph (pooled scratch sized for another shape)
// and the first graph again: every run reproduces the reference model,
// the rankings never move, and each run's counters match the cold run's.
func TestCachedDetectionMatchesOracle(t *testing.T) {
	cfgs := equivCorpus()
	groups := 0
	var prev *bipartite.Graph
	for i, cfg := range cfgs {
		ds := synth.MustGenerate(cfg)
		p := equivParams(i, cfg)
		p.Workers = 1 + i%3
		oracle := refDetect(ds.Graph, p)
		groups += len(oracle.Groups)

		det := &Detector{Params: p}
		run := func(label string, g *bipartite.Graph) (*detect.Result, map[string]int64) {
			t.Helper()
			det.Obs = obs.NewObserver("core")
			res, err := det.Detect(g)
			if err != nil {
				t.Fatalf("workload %d %s: %v", i, label, err)
			}
			return res, det.Obs.Metrics.Counters()
		}
		cold, coldCounters := run("cold", ds.Graph)
		sameResults(t, fmt.Sprintf("workload %d cold", i), oracle, cold)
		check := func(label string) {
			t.Helper()
			res, counters := run(label, ds.Graph)
			label = fmt.Sprintf("workload %d %s", i, label)
			sameResults(t, label, oracle, res)
			if !reflect.DeepEqual(res.RankedUsers, cold.RankedUsers) || !reflect.DeepEqual(res.RankedItems, cold.RankedItems) {
				t.Fatalf("%s: rankings diverged from the cold run", label)
			}
			if !maps.Equal(counters, coldCounters) {
				t.Fatalf("%s: counters diverged:\ncold: %v\nthis: %v", label, coldCounters, counters)
			}
		}
		check("warm")
		if prev != nil {
			run("other shape", prev)
			check("after another shape")
		}
		prev = ds.Graph
	}
	if groups == 0 {
		t.Fatal("the oracle found no groups anywhere; the test would be vacuous")
	}
}
