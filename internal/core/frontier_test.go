package core

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
	"repro/internal/obs"
	"repro/internal/synth"
)

// TestPropertyFrontierMatchesRescanOracle is the frontier-vs-oracle
// testing/quick property: on random graphs, the dirty-frontier fixpoint must
// leave exactly the residual, stats (Rounds included), and removal epoch of
// the full-rescan reference loop. The frontier runs over the whole graph —
// what a one-component residual runs inside its shard — so the property
// isolates the frontier from the sharding equivalence, which has its own
// harness.
func TestPropertyFrontierMatchesRescanOracle(t *testing.T) {
	f := func(seed int64) bool {
		g1 := randomPruneGraph(seed)
		g2 := g1.Clone()

		stR := refPrune(g1, params(6, 6, 0.8))
		stF, err := newFrontier(g2).prune(context.Background(), params(6, 6, 0.8), nil, nil, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if stR != stF {
			t.Logf("seed %d: frontier stats %+v, rescan %+v", seed, stF, stR)
			return false
		}
		if !reflect.DeepEqual(g1.LiveUserIDs(), g2.LiveUserIDs()) ||
			!reflect.DeepEqual(g1.LiveItemIDs(), g2.LiveItemIDs()) {
			t.Logf("seed %d: residuals diverge", seed)
			return false
		}
		if g1.RemovalEpoch() != g2.RemovalEpoch() {
			t.Logf("seed %d: removal epochs diverge: %d vs %d",
				seed, g2.RemovalEpoch(), g1.RemovalEpoch())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// ladderWithBiclique builds a rounds-heavy ladder (synth.LadderGraph shape)
// plus a disjoint stable n×n biclique appended after the ladder IDs. Under
// the ladder thresholds the ladder peels one layer per round from each end
// while the biclique survives untouched — and sits arbitrarily many hops
// from every removal.
func ladderWithBiclique(layers, m, k, n int) (*bipartite.Graph, int, int) {
	uOff, vOff := layers*m, layers*k
	b := bipartite.NewBuilder(uOff+n, vOff+n)
	for j := 0; j < layers; j++ {
		for u := 0; u < m; u++ {
			uid := bipartite.NodeID(j*m + u)
			for v := 0; v < k; v++ {
				b.Add(uid, bipartite.NodeID(j*k+v), 1)
				if j+1 < layers {
					b.Add(uid, bipartite.NodeID((j+1)*k+v), 1)
				}
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			b.Add(bipartite.NodeID(uOff+u), bipartite.NodeID(vOff+v), 1)
		}
	}
	return b.Build(), uOff, vOff
}

// TestFrontierSkipsVerticesFarFromRemovals pins the point of the frontier:
// a vertex more than two hops from every removal is never re-evaluated.
// The ladder component needs several rounds of removals; the disjoint
// biclique must be square-evaluated exactly once (round 1), where a full
// rescan re-evaluates it every round.
func TestFrontierSkipsVerticesFarFromRemovals(t *testing.T) {
	const layers, m, k = 8, 6, 6
	k1, k2, alpha := synth.LadderParams(m, k)
	n := k1 // an n×n biclique with n = k1 satisfies both square conditions

	type key struct {
		side bipartite.Side
		id   bipartite.NodeID
	}
	p := params(k1, k2, alpha)
	p.Workers = 1 // the eval hook is not synchronized
	g, _, _ := ladderWithBiclique(layers, m, k, n)
	evals := map[key]int{}
	testSquareEvalHook = func(side bipartite.Side, id bipartite.NodeID) {
		evals[key{side, id}]++
	}
	defer func() { testSquareEvalHook = nil }()
	// One frontier over the whole graph: sharding would put the biclique in
	// a component of its own, where nothing is ever removed.
	st, err := newFrontier(g).prune(context.Background(), p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	if st.Rounds < 3 {
		t.Fatalf("ladder fixpoint took %d rounds, want ≥ 3 (workload is not rounds-heavy)", st.Rounds)
	}
	uOff, vOff := layers*m, layers*k
	if g.LiveUsers() != n || g.LiveItems() != n {
		t.Fatalf("residual = %d users / %d items, want the %d×%d biclique only",
			g.LiveUsers(), g.LiveItems(), n, n)
	}
	for u := 0; u < n; u++ {
		if c := evals[key{bipartite.UserSide, bipartite.NodeID(uOff + u)}]; c != 1 {
			t.Errorf("far biclique user %d evaluated %d times, want exactly 1", uOff+u, c)
		}
	}
	for v := 0; v < n; v++ {
		if c := evals[key{bipartite.ItemSide, bipartite.NodeID(vOff + v)}]; c != 1 {
			t.Errorf("far biclique item %d evaluated %d times, want exactly 1", vOff+v, c)
		}
	}

	// Non-vacuity: the full-rescan reference, which evaluates every live
	// vertex in each of its rounds, takes the same rounds to the same
	// fixpoint, so the frontier's exactly-once count is a real saving.
	gR, _, _ := ladderWithBiclique(layers, m, k, n)
	if stR := refPrune(gR, p); stR != st {
		t.Fatalf("rescan stats %+v diverge from frontier %+v", stR, st)
	}
}

// TestFrontierMetricsRecorded checks the obs wiring: a frontier-mode
// extraction reports how many square evaluations the dirty frontier
// admitted via the core.frontier.evaluated counter.
func TestFrontierMetricsRecorded(t *testing.T) {
	g := synth.LadderGraph(8, 6, 6)
	k1, k2, alpha := synth.LadderParams(6, 6)
	p := params(k1, k2, alpha)
	o := obs.NewObserver("test")
	if _, err := NearBicliqueExtractCtx(context.Background(), g, p, o.Root(), o); err != nil {
		t.Fatal(err)
	}
	if v := o.Counter("core.frontier.evaluated").Value(); v == 0 {
		t.Error("core.frontier.evaluated counter never incremented")
	}
}
