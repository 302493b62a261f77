package core

import (
	"context"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bipartite"
)

// plantedGraph builds a graph with a perfect nU×nI biclique (users 0..nU-1,
// items 0..nI-1, weight w) plus sparse random noise users/items appended
// after the biclique IDs.
func plantedGraph(nU, nI int, w uint32, noiseUsers, noiseItems, noiseEdges int, seed int64) *bipartite.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := bipartite.NewBuilder(nU+noiseUsers, nI+noiseItems)
	for u := 0; u < nU; u++ {
		for v := 0; v < nI; v++ {
			b.Add(bipartite.NodeID(u), bipartite.NodeID(v), w)
		}
	}
	for e := 0; e < noiseEdges; e++ {
		u := bipartite.NodeID(nU + rng.Intn(noiseUsers))
		v := bipartite.NodeID(nI + rng.Intn(noiseItems))
		b.Add(u, v, uint32(1+rng.Intn(3)))
	}
	return b.Build()
}

func params(k1, k2 int, alpha float64) Params {
	p := DefaultParams()
	p.K1, p.K2, p.Alpha = k1, k2, alpha
	return p
}

func TestPruneKeepsBicliqueRemovesNoise(t *testing.T) {
	g := plantedGraph(12, 12, 5, 50, 50, 120, 1)
	p := params(10, 10, 1.0)
	st := prune(g, p)
	// All 12 biclique users/items survive; the sparse noise cannot.
	for u := bipartite.NodeID(0); u < 12; u++ {
		if !g.UserAlive(u) {
			t.Errorf("biclique user %d pruned", u)
		}
	}
	for v := bipartite.NodeID(0); v < 12; v++ {
		if !g.ItemAlive(v) {
			t.Errorf("biclique item %d pruned", v)
		}
	}
	if g.LiveUsers() != 12 || g.LiveItems() != 12 {
		t.Errorf("survivors = %d users / %d items, want 12/12 (stats %+v)",
			g.LiveUsers(), g.LiveItems(), st)
	}
}

func TestPruneRemovesBicliqueBelowThreshold(t *testing.T) {
	g := plantedGraph(8, 8, 5, 0, 0, 0, 1)
	p := params(10, 10, 1.0)
	prune(g, p)
	if g.LiveUsers() != 0 || g.LiveItems() != 0 {
		t.Errorf("8×8 biclique should not survive k=10 pruning: %v", g)
	}
}

func TestPruneAlphaRelaxation(t *testing.T) {
	// An 11×11 biclique with one user-item edge deleted per user (a
	// near-biclique): common neighbors between users drop to 9-10, so
	// α = 1.0 with k₂ = 11 prunes it but α = 0.8 keeps it.
	b := bipartite.NewBuilder(11, 11)
	for u := 0; u < 11; u++ {
		for v := 0; v < 11; v++ {
			if v == u { // knock out the diagonal
				continue
			}
			b.Add(bipartite.NodeID(u), bipartite.NodeID(v), 5)
		}
	}
	strict := b.Build()
	relaxedG := strict.Clone()

	pStrict := params(11, 11, 1.0)
	prune(strict, pStrict)
	if strict.LiveUsers() != 0 {
		t.Errorf("α=1.0 should prune the holed biclique, %d users left", strict.LiveUsers())
	}

	prelax := params(11, 11, 0.8)
	prune(relaxedG, pRelaxFix(prelax))
	if relaxedG.LiveUsers() != 11 || relaxedG.LiveItems() != 11 {
		t.Errorf("α=0.8 should keep the holed biclique: %d users / %d items",
			relaxedG.LiveUsers(), relaxedG.LiveItems())
	}
}

func pRelaxFix(p Params) Params { return p }

func TestCorePruneCascades(t *testing.T) {
	// A path u0—v0—u1—v1—…: every vertex has degree ≤ 2, so with
	// k₁ = k₂ = 3, α = 1 core pruning alone must empty the graph through
	// cascading removals.
	b := bipartite.NewBuilder(6, 6)
	for i := 0; i < 6; i++ {
		b.Add(bipartite.NodeID(i), bipartite.NodeID(i), 1)
		if i+1 < 6 {
			b.Add(bipartite.NodeID(i+1), bipartite.NodeID(i), 1)
		}
	}
	g := b.Build()
	p := params(3, 3, 1.0)
	prune(g, p)
	if g.LiveUsers() != 0 || g.LiveItems() != 0 {
		t.Errorf("path should be fully pruned: %v", g)
	}
}

func TestSinglePassWeakerThanFixpoint(t *testing.T) {
	// The single pass follows the literal pseudocode and does not iterate,
	// so it may leave vertices a fixpoint would remove — it must never
	// remove MORE than the fixpoint (both respect the same monotone
	// conditions, and the fixpoint is maximal).
	g1 := plantedGraph(12, 12, 5, 60, 60, 400, 7)
	g2 := g1.Clone()

	pFix := params(10, 10, 1.0)
	prune(g1, pFix)
	refPruneSinglePass(g2, pFix)

	// Every fixpoint survivor also survives the single pass.
	g1.EachLiveUser(func(u bipartite.NodeID) bool {
		if !g2.UserAlive(u) {
			t.Errorf("user %d survives fixpoint but not single pass", u)
		}
		return true
	})
	g1.EachLiveItem(func(v bipartite.NodeID) bool {
		if !g2.ItemAlive(v) {
			t.Errorf("item %d survives fixpoint but not single pass", v)
		}
		return true
	})
}

func TestPruneFixpointPostconditions(t *testing.T) {
	// After fixpoint pruning, every survivor satisfies Lemma 1 (degree)
	// and Lemma 2 (number of (α,k)-neighbors, self included) — checked
	// pair by pair with the set operations of package bipartite, for the
	// production fixpoint and for the reference the harnesses compare it
	// with.
	p := params(10, 10, 0.9)
	minUDeg := ceilMul(p.K2, p.Alpha)
	minIDeg := ceilMul(p.K1, p.Alpha)
	for name, pruneFn := range map[string]func(*bipartite.Graph, Params) PruneStats{
		"production": prune,
		"reference":  refPrune,
	} {
		g := plantedGraph(14, 13, 4, 80, 80, 600, 3)
		pruneFn(g, p)
		if g.LiveUsers() == 0 {
			t.Errorf("%s: nothing survived; the postconditions are vacuous", name)
		}
		users, items := g.LiveUserIDs(), g.LiveItemIDs()
		for _, u := range users {
			if g.UserDegree(u) < minUDeg {
				t.Errorf("%s: user %d degree %d < %d", name, u, g.UserDegree(u), minUDeg)
			}
			n := 0
			for _, y := range users {
				if commonUsers(g, u, y) >= minUDeg {
					n++
				}
			}
			if n < p.K1 {
				t.Errorf("%s: user %d violates square condition at fixpoint", name, u)
			}
		}
		for _, v := range items {
			if g.ItemDegree(v) < minIDeg {
				t.Errorf("%s: item %d degree %d < %d", name, v, g.ItemDegree(v), minIDeg)
			}
			n := 0
			for _, y := range items {
				if commonItems(g, v, y) >= minIDeg {
					n++
				}
			}
			if n < p.K2 {
				t.Errorf("%s: item %d violates square condition at fixpoint", name, v)
			}
		}
	}
}

func TestParallelFilterMatchesSerial(t *testing.T) {
	g := plantedGraph(12, 12, 5, 100, 100, 800, 11)
	ctx := context.Background()
	pSerial := params(10, 10, 1.0)
	pSerial.Workers = 1

	pool := newCounterPool(g.NumUsers(), g.NumItems())
	wide := newWideMasks(g, ceilMul(pSerial.K2, pSerial.Alpha))
	wide.refresh(g, ceilMul(pSerial.K2, pSerial.Alpha))
	round := func(p Params) []bipartite.NodeID {
		return squareRoundUsers(ctx, g, p, g.LiveUserIDs(), pool, wide, newCertificates(g.NumUsers(), p.K1))
	}
	serialU := round(pSerial)
	for _, workers := range []int{2, 8} {
		pPar := pSerial
		pPar.Workers = workers
		if parU := round(pPar); !slices.Equal(serialU, parU) {
			t.Errorf("workers %d: parallel victims %v, serial %v", workers, parU, serialU)
		}
	}
	var walkU []bipartite.NodeID
	for _, u := range g.LiveUserIDs() {
		if !refUserSurvives(g, u, ceilMul(pSerial.K2, pSerial.Alpha), pSerial.K1) {
			walkU = append(walkU, u)
		}
	}
	if !slices.Equal(serialU, walkU) {
		t.Errorf("masked victims %v, plain walk %v", serialU, walkU)
	}
}

// TestParallelFilterSkewedAndCancelled runs parallelFilter on a predicate
// whose cost is skewed by ID — every 97th ID is 100× dearer, the shape that
// left a worker idle under one fixed range per worker — and checks, at
// Workers 1, 2 and 8, that the grains give the serial output, that a round
// cancelled midway returns an order-preserving subset of it with nothing
// from the grains after the cancel, that a panicking round raises the lowest
// panic on the caller only after every worker has joined, and that no
// worker outlives the call.
func TestParallelFilterSkewedAndCancelled(t *testing.T) {
	ids := make([]bipartite.NodeID, 2000)
	for i := range ids {
		ids[i] = bipartite.NodeID(i)
	}
	pred := func(_ *commonCounter, id bipartite.NodeID) bool {
		n := 200
		if id%97 == 0 {
			n *= 100
		}
		x := uint32(id)
		for i := 0; i < n; i++ {
			x = x*1664525 + 1013904223
		}
		return x%3 == 0
	}
	var want []bipartite.NodeID
	for _, id := range ids {
		if pred(nil, id) {
			want = append(want, id)
		}
	}
	pool := newCounterPool(0, 0)
	ctx := context.Background()
	settled := func(base int) bool {
		for i := 0; i < 100; i++ {
			if runtime.NumGoroutine() <= base {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}

	const cancelAt = 1000
	for _, workers := range []int{1, 2, 8} {
		base := runtime.NumGoroutine()
		if got := parallelFilter(ctx, ids, workers, pred, pool); !slices.Equal(got, want) {
			t.Errorf("workers %d: %d kept, serial keeps %d", workers, len(got), len(want))
		}

		// The worker that meets cancelAt cancels. A worker reaching the
		// grains after it waits for the cancel there, so it holds at most
		// one grain that started before the cancel and takes no other.
		cctx, cancel := context.WithCancel(ctx)
		cancelled := make(chan struct{})
		next := bipartite.NodeID((cancelAt/filterGrain + 1) * filterGrain)
		got := parallelFilter(cctx, ids, workers, func(c *commonCounter, id bipartite.NodeID) bool {
			switch {
			case id == cancelAt:
				cancel()
				close(cancelled)
			case id >= next:
				<-cancelled
			}
			return pred(c, id)
		}, pool)
		cancel()
		limit := next + bipartite.NodeID((workers-1)*filterGrain)
		if len(got) == 0 || got[len(got)-1] >= limit {
			t.Errorf("workers %d: cancelled round kept %v, want a prefix ending below %d", workers, got, limit)
		}
		if !isSubsequence(got, want) {
			t.Errorf("workers %d: cancelled round output is not an order-preserving subset of the full round", workers)
		}
		if !settled(base) {
			t.Errorf("workers %d: %d goroutines after the call, %d before", workers, runtime.NumGoroutine(), base)
		}

		// Every 97th ID from 13 on panics with its ID, while the other
		// workers are mid-grain in the dear predicate: the caller sees the
		// lowest one's panic, once no predicate call is running any more.
		var running atomic.Int32
		func() {
			defer func() {
				if r := recover(); r != bipartite.NodeID(13) {
					t.Errorf("workers %d: caller recovered %v, want the panic of ID 13", workers, r)
				}
				if n := running.Load(); n != 0 {
					t.Errorf("workers %d: the panic reached the caller with %d predicate calls running", workers, n)
				}
			}()
			parallelFilter(ctx, ids, workers, func(c *commonCounter, id bipartite.NodeID) bool {
				running.Add(1)
				defer running.Add(-1)
				if id%97 == 13 {
					panic(id)
				}
				return pred(c, id)
			}, pool)
			t.Errorf("workers %d: a panicking round returned", workers)
		}()
		if !settled(base) {
			t.Errorf("workers %d: %d goroutines after the panicking call, %d before", workers, runtime.NumGoroutine(), base)
		}
	}
}

// isSubsequence reports whether sub is a subsequence of seq.
func isSubsequence(sub, seq []bipartite.NodeID) bool {
	i := 0
	for _, x := range seq {
		if i < len(sub) && sub[i] == x {
			i++
		}
	}
	return i == len(sub)
}

func TestExtractGroupsSizeFilter(t *testing.T) {
	// Two disjoint bicliques: 12×12 and 5×5. With k₁=k₂=10 only the first
	// qualifies as a group after pruning.
	b := bipartite.NewBuilder(17, 17)
	for u := 0; u < 12; u++ {
		for v := 0; v < 12; v++ {
			b.Add(bipartite.NodeID(u), bipartite.NodeID(v), 3)
		}
	}
	for u := 12; u < 17; u++ {
		for v := 12; v < 17; v++ {
			b.Add(bipartite.NodeID(u), bipartite.NodeID(v), 3)
		}
	}
	g := b.Build()
	p := params(10, 10, 1.0)
	groups := extractGroups(g, p)
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
	if len(groups[0].Users) != 12 || len(groups[0].Items) != 12 {
		t.Errorf("group = %d users / %d items, want 12/12",
			len(groups[0].Users), len(groups[0].Items))
	}
}

func TestExtractTwoSeparateGroups(t *testing.T) {
	// Two disjoint 11×11 bicliques must come back as two groups.
	b := bipartite.NewBuilder(22, 22)
	for blk := 0; blk < 2; blk++ {
		off := blk * 11
		for u := 0; u < 11; u++ {
			for v := 0; v < 11; v++ {
				b.Add(bipartite.NodeID(off+u), bipartite.NodeID(off+v), 3)
			}
		}
	}
	g := b.Build()
	groups := extractGroups(g, params(10, 10, 1.0))
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
}

func TestPruneEmptyGraph(t *testing.T) {
	g := bipartite.NewGraph(0, 0)
	st := prune(g, params(10, 10, 1.0))
	if st.UsersRemoved != 0 || st.ItemsRemoved != 0 {
		t.Errorf("empty graph pruning removed something: %+v", st)
	}
}

func TestSortByDegreeBreaksTiesByNodeID(t *testing.T) {
	// Regression: victim candidate ordering must be fully deterministic
	// under sharding — equal degrees break ties by NodeID, so traces and
	// the compact-graph traversal order never depend on sort instability.
	b := bipartite.NewBuilder(6, 6)
	// Items 0..5 all end with degree 2 except item 5 (degree 1).
	for v := 0; v < 5; v++ {
		b.Add(0, bipartite.NodeID(v), 1)
		b.Add(1, bipartite.NodeID(v), 1)
	}
	b.Add(2, 5, 1)
	g := b.Build()

	ids := []bipartite.NodeID{4, 2, 0, 5, 3, 1}
	sortByDegree(ids, g.ItemDegree, nil)
	want := []bipartite.NodeID{5, 0, 1, 2, 3, 4} // degree 1 first, then ID order
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sorted order = %v, want %v", ids, want)
		}
	}
}

// TestItemWalkOrderMatchesSortByDegree: the item walk's order is
// sortByDegree's (degree, ID) order on all three of its paths. Every user
// of an item in the block clicks all of the block's items, so those columns
// share one degree and are left as they are; a few users click hundreds of
// items, so some columns span a degree range wider than n·log₂n and take
// the comparison sort; the rest are counted.
func TestItemWalkOrderMatchesSortByDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := newCommonCounter(0, 0)
	var paths [3]int // one degree, counted, sorted
	for trial := 0; trial < 40; trial++ {
		nu, ni := 50+rng.Intn(400), 20+rng.Intn(600)
		b := bipartite.NewBuilder(nu+20, ni+5)
		for u := 0; u < nu; u++ {
			deg := 1 + rng.Intn(6)
			if rng.Intn(100) == 0 {
				deg = ni / 2
			}
			for ; deg > 0; deg-- {
				b.Add(bipartite.NodeID(u), bipartite.NodeID(rng.Intn(ni)), 1)
			}
		}
		for u := nu; u < nu+20; u++ {
			for v := ni; v < ni+5; v++ {
				b.Add(bipartite.NodeID(u), bipartite.NodeID(v), 1)
			}
		}
		g := b.Build()
		for u := 0; u < g.NumUsers(); u++ {
			if rng.Intn(4) == 0 {
				g.RemoveUser(bipartite.NodeID(u))
			}
		}
		for v := 0; v < g.NumItems(); v++ {
			c.nbrs = c.nbrs[:0]
			lo, hi := g.NumItems(), 0
			g.EachItemNeighbor(bipartite.NodeID(v), func(u bipartite.NodeID, _ uint32) bool {
				c.nbrs = append(c.nbrs, u)
				lo, hi = min(lo, g.UserDegree(u)), max(hi, g.UserDegree(u))
				return true
			})
			want := slices.Clone(c.nbrs)
			sortByDegree(want, g.UserDegree, nil)
			c.orderByDegree(g.UserDegree)
			if !slices.Equal(c.nbrs, want) {
				t.Fatalf("trial %d, item %d: walk order %v, sortByDegree %v", trial, v, c.nbrs, want)
			}
			switch n := len(c.nbrs); {
			case n < 2:
			case hi == lo:
				paths[0]++
			case hi-lo > n*bits.Len(uint(n)):
				paths[2]++
			default:
				paths[1]++
			}
		}
	}
	if slices.Contains(paths[:], 0) {
		t.Fatalf("columns per path (one degree, counted, sorted) = %v: every path must run", paths)
	}
	t.Logf("columns per path (one degree, counted, sorted) = %v", paths)
}

// commonUsers and commonItems count the live neighbours two users (two
// items) share: a sorted merge of their rows (columns) that skips dead
// endpoints.
func commonUsers(g *bipartite.Graph, a, b bipartite.NodeID) int {
	if !g.UserAlive(a) || !g.UserAlive(b) {
		return 0
	}
	return commonLive(g.UserArcs(a), g.UserArcs(b), g.ItemAlive)
}

func commonItems(g *bipartite.Graph, a, b bipartite.NodeID) int {
	if !g.ItemAlive(a) || !g.ItemAlive(b) {
		return 0
	}
	return commonLive(g.ItemArcs(a), g.ItemArcs(b), g.UserAlive)
}

func commonLive(a, b []bipartite.Arc, alive func(bipartite.NodeID) bool) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].To < b[j].To:
			i++
		case a[i].To > b[j].To:
			j++
		default:
			if alive(a[i].To) {
				n++
			}
			i++
			j++
		}
	}
	return n
}

// addLiveEdges adds every live edge of g to b.
func addLiveEdges(b *bipartite.Builder, g *bipartite.Graph) {
	g.EachLiveUser(func(u bipartite.NodeID) bool {
		g.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
			b.Add(u, v, w)
			return true
		})
		return true
	})
}
