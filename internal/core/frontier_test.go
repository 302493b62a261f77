package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
	"repro/internal/obs"
	"repro/internal/synth"
)

// TestFrontierCertifiesOnLadderAndMarketplace is the non-vacuity half of the
// certificate property, on a hub ladder and on the batch_detect marketplace
// (DefaultConfig, 16 crews): some taken vertex survives on its certificate,
// and every taken vertex, all of them live, is either certified or walked —
// the walks testSquareEvalHook sees plus the certified count are the taken
// count.
func TestFrontierCertifiesOnLadderAndMarketplace(t *testing.T) {
	defer func() { testSquareEvalHook = nil }()
	k1, k2, alpha := synth.LadderParams(6, 6)
	for _, c := range []struct {
		name string
		g    *bipartite.Graph
		p    Params
	}{
		{"hub ladder", ladderWithHub(12, 6, 6, 0), params(k1, k2, alpha)},
		{"marketplace", batchShape().Graph, DefaultParams()},
	} {
		p := c.p
		p.Workers = 1 // the eval hook is not synchronized
		walked := int64(0)
		testSquareEvalHook = func(bipartite.Side, bipartite.NodeID) { walked++ }
		o := obs.NewObserver("test")
		if _, err := NearBicliqueExtractCtx(context.Background(), c.g, p, nil, o); err != nil {
			t.Fatal(err)
		}
		evaluated := o.Counter("core.frontier.evaluated").Value()
		certified := o.Counter("core.frontier.certified").Value()
		t.Logf("%s: %d taken, %d walked, %d certified", c.name, evaluated, walked, certified)
		if certified == 0 {
			t.Errorf("%s: no vertex was certified", c.name)
		}
		if walked+certified != evaluated {
			t.Errorf("%s: %d walked + %d certified are not the %d taken", c.name, walked, certified, evaluated)
		}
	}
}

// TestPropertyWitnessesProveThePass: the witnesses a passing square test
// leaves are the certificate, so they must prove the pass on their own —
// exactly k distinct vertices, each sharing at least need live neighbours with
// the tested one (which may be among them). Checked for every live user and
// item of the masked-kernel shapes after random removals, which between them
// pass users on the heavy list alone, on the walk and on the finish.
func TestPropertyWitnessesProveThePass(t *testing.T) {
	for _, s := range maskShapes {
		t.Run(s.name, func(t *testing.T) {
			needU, needI := s.need(), ceilMul(s.k1, s.alpha)
			passU, passI, maskPassU := 0, 0, 0
			f := func(seed int64) bool {
				g, wm := s.maskedGraph(rand.New(rand.NewSource(seed)))
				c := newCommonCounter(g.NumUsers(), g.NumItems())
				for _, u := range g.LiveUserIDs() {
					c.maskPasses = 0
					if !squareSurvivesUserWide(g, u, needU, s.k1, c, wm) {
						continue
					}
					passU++
					maskPassU += c.maskPasses
					if !witnessesProve(c.wit, s.k1, func(y bipartite.NodeID) bool {
						return commonUsers(g, u, y) >= needU
					}) {
						t.Logf("seed %d: user %d passed on witnesses %v (heavy list alone: %v)", seed, u, c.wit, c.maskPasses > 0)
						return false
					}
				}
				for _, v := range g.LiveItemIDs() {
					if !squareSurvivesItem(g, v, needI, s.k2, c) {
						continue
					}
					passI++
					if !witnessesProve(c.wit, s.k2, func(y bipartite.NodeID) bool {
						return commonItems(g, v, y) >= needI
					}) {
						t.Logf("seed %d: item %d passed on witnesses %v", seed, v, c.wit)
						return false
					}
				}
				return true
			}
			cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
			if passU == 0 || passI == 0 {
				t.Errorf("vacuous: %d users and %d items passed", passU, passI)
			}
			if s.wantMaskPass && maskPassU == 0 {
				t.Error("no user passed on the heavy list alone")
			}
		})
	}
}

// witnessesProve reports whether wit is k distinct vertices that all qualify.
func witnessesProve(wit []bipartite.NodeID, k int, qualifies func(bipartite.NodeID) bool) bool {
	if len(wit) != k {
		return false
	}
	seen := map[bipartite.NodeID]bool{}
	for _, w := range wit {
		if seen[w] || !qualifies(w) {
			return false
		}
		seen[w] = true
	}
	return true
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

// TestFrontierSkipsVerticesFarFromRemovals pins what certificates save: a
// vertex more than two hops from every removal loses no neighbour and no
// witness, so it is walked once and certified in every later round. The
// ladder component needs several rounds of removals; the disjoint biclique
// must be walked exactly once (round 1), where a rescan without certificates
// walks it every round.
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

	// Non-vacuity: the rescan reference, which walks every live vertex in
	// each of its rounds, takes the same rounds to the same fixpoint, so the
	// exactly-once count is a real saving.
	gR, _, _ := ladderWithBiclique(layers, m, k, n)
	if stR := refPrune(gR, p); stR != st {
		t.Fatalf("rescan stats %+v diverge from frontier %+v", stR, st)
	}
}

// TestFrontierMetricsRecorded checks the obs wiring: an extraction reports
// how many vertices its rounds took via the core.frontier.evaluated counter.
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
