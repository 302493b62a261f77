package core

import (
	"reflect"
	"testing"
	"testing/quick"
)

// Property: for random seeded graphs, the merge of per-shard PruneStats
// equals the whole-graph reference PruneStats — removal counts exactly, and
// Rounds both exactly (serial round r removes every component's round-r
// square victims, so the serial count is the max over components of their
// local fixpoint rounds) and monotonically (≥ 1, ≤ the serial count, pinned
// separately so a future relaxation of the exact-equality argument still
// leaves an enforced bound).
func TestPropertyShardMergedStatsMatchWholeGraph(t *testing.T) {
	f := func(seed int64) bool {
		g1 := randomPruneGraph(seed)
		g2 := g1.Clone()
		sharded := params(6, 6, 0.8)
		sharded.Workers = 4

		stSerial := refPrune(g1, params(6, 6, 0.8))
		stSharded := prune(g2, sharded)

		if stSharded.UsersRemoved != stSerial.UsersRemoved ||
			stSharded.ItemsRemoved != stSerial.ItemsRemoved {
			t.Logf("seed %d: removal counts %+v vs serial %+v", seed, stSharded, stSerial)
			return false
		}
		if stSharded.Rounds < 1 || stSharded.Rounds > stSerial.Rounds {
			t.Logf("seed %d: rounds %d outside [1, %d]", seed, stSharded.Rounds, stSerial.Rounds)
			return false
		}
		if stSharded.Rounds != stSerial.Rounds {
			t.Logf("seed %d: rounds %d, serial %d", seed, stSharded.Rounds, stSerial.Rounds)
			return false
		}
		// The fixpoints themselves must coincide, not just their sizes.
		if !reflect.DeepEqual(g1.LiveUserIDs(), g2.LiveUserIDs()) ||
			!reflect.DeepEqual(g1.LiveItemIDs(), g2.LiveItemIDs()) {
			t.Logf("seed %d: residuals diverge", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: extraction through the sharded path returns the serial group
// sequence for random graphs too, not only for the synthetic corpus of
// shardequiv_test.go.
func TestPropertyShardedExtractionMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		p := params(6, 6, 0.8)

		g1 := randomPruneGraph(seed)
		g2 := g1.Clone()
		want := refExtract(g1, p)
		p.Workers = 8
		got := extractGroups(g2, p)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: groups diverge:\n got %v\nwant %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
