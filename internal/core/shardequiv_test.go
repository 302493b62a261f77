package core

import (
	"fmt"
	"reflect"
	"testing"

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
