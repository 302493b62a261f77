package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// ladderWithHub is synth.LadderGraph(layers, m, k) plus a hub: an n×n
// biclique appended after the ladder IDs, with ladder user u also clicking
// hub item u mod n. Under LadderParams(m, k), with n = 2m+1, the ladder peels
// as it does alone (a ladder user shares one hub item with a hub user, fewer
// than ⌈k/2⌉) while the hub survives. Every ladder user that dies takes a
// live item from the hub, so hub users are re-taken, two hops from the
// removal and with their own items intact: the frontier shape that
// certificates exist for. A bare ladder has none — each vertex it takes lost
// a neighbour in the same round.
func ladderWithHub(layers, m, k int) *bipartite.Graph {
	n := 2*m + 1
	ladder := synth.LadderGraph(layers, m, k)
	uOff, vOff := ladder.NumUsers(), ladder.NumItems()
	b := bipartite.NewBuilder(uOff+n, vOff+n)
	addLiveEdges(b, ladder)
	for u := 0; u < uOff; u++ {
		b.Add(bipartite.NodeID(u), bipartite.NodeID(vOff+u%n), 1)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			b.Add(bipartite.NodeID(uOff+u), bipartite.NodeID(vOff+v), 1)
		}
	}
	return b.Build()
}

// tightBlocksGraph draws thresholds and a 40×40 graph of 2–5 overlapping
// near-bicliques sized at those thresholds, plus noise. A block vertex then
// has barely k qualifying partners, so losing one partner — with its own
// neighbourhood intact — is enough to make it fail: the case a certificate
// must not paper over.
func tightBlocksGraph(seed int64) (*bipartite.Graph, Params) {
	rng := rand.New(rand.NewSource(seed))
	p := params(3+rng.Intn(4), 3+rng.Intn(4), 0.5+0.1*float64(rng.Intn(6)))
	const n = 40
	b := bipartite.NewBuilder(n, n)
	for blocks := 2 + rng.Intn(4); blocks > 0; blocks-- {
		su, si := p.K1+rng.Intn(3), p.K2+rng.Intn(3)
		u0, v0 := rng.Intn(n-su), rng.Intn(n-si)
		density := 0.6 + 0.4*rng.Float64()
		for u := u0; u < u0+su; u++ {
			for v := v0; v < v0+si; v++ {
				if rng.Float64() < density {
					b.Add(bipartite.NodeID(u), bipartite.NodeID(v), 1)
				}
			}
		}
	}
	for e := 0; e < 30; e++ {
		b.Add(bipartite.NodeID(rng.Intn(n)), bipartite.NodeID(rng.Intn(n)), 1)
	}
	return b.Build(), p
}

// TestPropertyCertifiedFrontierMatchesRescanOracle: survivor certificates
// change what the frontier walks, never what it decides. On random graphs
// under random thresholds (k1, k2 ∈ [4, 8], α ∈ [0.6, 1]: α < 1 and K1 ≠ K2
// in most draws), on tight blocks (tightBlocksGraph) and on hub ladders of
// random shape (α = ½, K1 = 2m+1 ≠ K2 = k, about layers/2 ≥ 3 rounds, so
// certificates made after a removal are consulted again), at Workers 1, 2
// and 8, the frontier leaves exactly the rescan reference's stats, residual
// and removal epoch. Every shape must certify, or the property proves
// nothing. The draws are seeded, so a mutation the property catches is
// caught on every run.
func TestPropertyCertifiedFrontierMatchesRescanOracle(t *testing.T) {
	shapes := []struct {
		name      string
		build     func(seed int64) (*bipartite.Graph, Params)
		minRounds int
	}{
		{"random", func(seed int64) (*bipartite.Graph, Params) {
			rng := rand.New(rand.NewSource(seed))
			return randomPruneGraph(seed), params(4+rng.Intn(5), 4+rng.Intn(5), 0.6+0.1*float64(rng.Intn(5)))
		}, 1},
		{"tight blocks", tightBlocksGraph, 1},
		{"hub ladder", func(seed int64) (*bipartite.Graph, Params) {
			rng := rand.New(rand.NewSource(seed))
			m, k := 3+rng.Intn(4), 3+rng.Intn(4)
			k1, k2, alpha := synth.LadderParams(m, k)
			return ladderWithHub(6+rng.Intn(10), m, k), params(k1, k2, alpha)
		}, 3},
	}
	for _, s := range shapes {
		for _, workers := range []int{1, 2, 8} {
			minRounds, certified := math.MaxInt, int64(0)
			f := func(seed int64) bool {
				g1, p := s.build(seed)
				g2 := g1.Clone()
				p.Workers = workers
				stR := refPrune(g1, p)
				o := obs.NewObserver("test")
				stF, err := newFrontier(g2).prune(context.Background(), p, nil, o, nil)
				if err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				minRounds = min(minRounds, stF.Rounds)
				certified += o.Counter("core.frontier.certified").Value()
				switch {
				case stR != stF:
					t.Logf("seed %d: frontier stats %+v, rescan %+v", seed, stF, stR)
				case !slices.Equal(g1.LiveUserIDs(), g2.LiveUserIDs()) || !slices.Equal(g1.LiveItemIDs(), g2.LiveItemIDs()):
					t.Logf("seed %d: residuals diverge", seed)
				case g1.RemovalEpoch() != g2.RemovalEpoch():
					t.Logf("seed %d: removal epochs diverge: %d vs %d", seed, g2.RemovalEpoch(), g1.RemovalEpoch())
				default:
					return true
				}
				return false
			}
			cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
			if err := quick.Check(f, cfg); err != nil {
				t.Errorf("%s, workers %d: %v", s.name, workers, err)
			}
			if minRounds < s.minRounds {
				t.Errorf("%s, workers %d: a fixpoint ended after %d rounds, want ≥ %d", s.name, workers, minRounds, s.minRounds)
			}
			if certified == 0 {
				t.Errorf("%s, workers %d: no vertex was certified", s.name, workers)
			}
		}
	}
}

// TestFrontierCertifiesOnLadderAndMarketplace is the non-vacuity half of the
// certificate property, on a hub ladder and on the batch_detect marketplace
// (DefaultConfig, 16 crews): some taken vertex survives on its certificate,
// and no vertex is both certified and walked — the walks testSquareEvalHook
// sees plus the certified count stay within the taken frontier.
func TestFrontierCertifiesOnLadderAndMarketplace(t *testing.T) {
	defer func() { testSquareEvalHook = nil }()
	k1, k2, alpha := synth.LadderParams(6, 6)
	for _, c := range []struct {
		name string
		g    *bipartite.Graph
		p    Params
	}{
		{"hub ladder", ladderWithHub(12, 6, 6), params(k1, k2, alpha)},
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
		if walked+certified > evaluated {
			t.Errorf("%s: %d walked + %d certified exceed the %d taken", c.name, walked, certified, evaluated)
		}
	}
}

// TestPropertyWitnessesProveThePass: the witnesses a passing square test
// leaves are the certificate, so they must prove the pass on their own —
// exactly k distinct vertices, each sharing at least need live neighbours with
// the tested one (which may be among them). Checked for every live user and
// item of the masked-kernel shapes after random removals, which between them
// pass users on the walk, on the touched-candidates finish and on the
// all-users scan.
func TestPropertyWitnessesProveThePass(t *testing.T) {
	for _, s := range maskShapes {
		t.Run(s.name, func(t *testing.T) {
			needU, needI := ceilMul(s.k2, s.alpha), ceilMul(s.k1, s.alpha)
			passU, passI := 0, 0
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				g := s.graph(rng)
				wm := newWideMasks(g)
				share := []float64{0, 0.1, 0.4}[rng.Intn(3)]
				for u := 0; u < s.users; u++ {
					if rng.Float64() < share {
						g.RemoveUser(bipartite.NodeID(u))
					}
				}
				for v := 0; v < s.items; v++ {
					if rng.Float64() < share {
						g.RemoveItem(bipartite.NodeID(v))
					}
				}
				wm.refresh(g)
				c := newCommonCounter(g.NumUsers(), g.NumItems())
				for _, u := range g.LiveUserIDs() {
					if !squareSurvivesUserWide(g, u, needU, s.k1, c, wm) {
						continue
					}
					passU++
					if !witnessesProve(c.wit, s.k1, func(y bipartite.NodeID) bool {
						return commonUsers(g, u, y) >= needU
					}) {
						t.Logf("seed %d: user %d passed on witnesses %v", seed, u, c.wit)
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
