package core

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bipartite"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// This file implements Algorithm 3: the (α,k₁,k₂)-extension biclique
// extraction algorithm, consisting of CorePruning (degree conditions,
// Lemma 1) and SquarePruning ((α,k)-neighbor conditions, Lemma 2).
//
// Both conditions are monotone: removing any vertex can only lower other
// vertices' live degrees and common-neighbor counts. The set of vertices
// satisfying both conditions therefore has a unique maximal fixpoint, which
// is computed by alternating batch rounds (safe to evaluate in parallel
// because each round inspects a frozen graph and removals are applied between
// rounds). The guarantees of Lemmas 1–2 only hold at that fixpoint; the
// paper's literal one-pass pseudocode lives in reference_test.go.
//
// Every round takes every live vertex, as the reference model's rescan does.
// A vertex whose last passing test left a survivor certificate that still
// holds survives without a walk (DESIGN.md §10).

// PruneStats reports what pruning removed.
type PruneStats struct {
	UsersRemoved int
	ItemsRemoved int
	Rounds       int
}

// PruneCtx runs Core + Square pruning on g in place and returns removal
// statistics. After PruneCtx returns without error, every surviving user has
// live degree ≥ ⌈α·k₂⌉ and at least k₁ (α,k₂)-neighbors, and every surviving
// item has live degree ≥ ⌈α·k₁⌉ and at least k₂ (α,k₁)-neighbors. Every
// fixpoint round becomes a child span of sp carrying its removal counts; a
// nil sp traces nothing at no cost.
//
// The fixpoint is computed by the component-sharded orchestration (shard.go),
// which checks ctx before the global core prune (fault-injection site
// "core.prune.round"), before each shard and at the top of every round inside
// a shard, while the parallel square-pruning workers poll ctx periodically, so
// a cancelled prune returns within a fraction of a round. On cancellation the
// graph is left mid-prune (still a valid graph, but not at the fixpoint) and
// the accumulated stats are returned with ctx's error.
func PruneCtx(ctx context.Context, g *bipartite.Graph, p Params, sp *obs.Span) (PruneStats, error) {
	st, _, err := shardedPruneExtract(ctx, g, p, sp, nil, false)
	return st, err
}

// testSquareEvalHook, when non-nil, is invoked for every live vertex whose
// square condition is actually walked during fixpoint rounds (a vertex whose
// certificate holds is not). Tests use it to count the walks a fixpoint
// spends. A hook that keeps state needs Workers=1 — parallel rounds would
// race on it; a stateless one (a panic, say) may run at any Workers.
var testSquareEvalHook func(side bipartite.Side, id bipartite.NodeID)

// frontiers lends each fixpoint (newFrontier … release) its certificate
// slabs, wide masks, ID buffer and removal scratch, grown to the largest
// graph met, so a warm fixpoint allocates none of them (DESIGN.md §10.4).
var frontiers = sync.Pool{New: func() any { return new(frontier) }}

// frontier is one fixpoint's scratch: what a round takes, what its tests
// prove and what its removals collect. Every removal the fixpoint applies,
// a core cascade's or a square victim, goes through removeUser/removeItem,
// which set the lost bit of each neighbour's survivor certificate: its live
// neighbourhood shrank, so its witnesses no longer prove anything.
type frontier struct {
	g     *bipartite.Graph
	certU certificates
	certI certificates
	wide  wideMasks
	ids   []bipartite.NodeID // the live users, then the live items, a round takes
	nbrs  []bipartite.NodeID // the victim loops' removeUser/removeItem scratch
}

// newFrontier leases a frontier for a fixpoint on g.
func newFrontier(g *bipartite.Graph) *frontier {
	fr := frontiers.Get().(*frontier)
	fr.g = g
	return fr
}

// release hands fr back; no result points into it.
func (fr *frontier) release() {
	fr.g = nil
	frontiers.Put(fr)
}

// resize returns buf with length n, reusing its array when it is large
// enough; reused elements keep whatever they held.
func resize[T any](buf []T, n int) []T { return slices.Grow(buf[:0], n)[:n] }

// prune computes the Core/Square fixpoint of Algorithm 3 on fr.g. Each round
// runs the core fixpoint, then tests every live user and applies the user
// victims, then tests every live item, so the item tests see the same
// round's user removals; each side is taken in ascending ID order. That is
// the reference model's rescan loop (reference_test.go), and victims, rounds
// and residual are its. A vertex whose certificate still holds survives
// without a walk. o (nil-safe) receives the core.frontier metrics.
//
// The user tests go through the wide-item masks (wideMasks), built once
// after the first core fixpoint and refreshed, with the heavy list, before
// every round's user tests.
func (fr *frontier) prune(ctx context.Context, p Params, sp *obs.Span, o *obs.Observer, a *auditor) (PruneStats, error) {
	var st PruneStats
	g := fr.g
	pool := newCounterPool(g.NumUsers(), g.NumItems())
	needU := ceilMul(p.K2, p.Alpha)
	wide := &fr.wide
	fr.certU.reset(g.NumUsers(), p.K1)
	fr.certI.reset(g.NumItems(), p.K2)
	for {
		faultinject.Hit("core.prune.round")
		if err := ctx.Err(); err != nil {
			return st, err
		}
		st.Rounds++
		rsp := sp.Start("round")
		removed := corePruneFixpoint(g, p, a, st.Rounds, fr)
		if st.Rounds == 1 {
			wide.build(g, needU)
		}
		faultinject.Hit("core.frontier")

		fr.ids = liveIDs(fr.ids, g.NumUsers(), g.UserAlive)
		users := len(fr.ids)
		wide.refresh(g, needU)
		uVictims := squareRoundUsers(ctx, g, p, fr.ids, pool, wide, &fr.certU)
		a.squareRemovals(bipartite.UserSide, uVictims, st.Rounds, needU, p.K1)
		for _, u := range uVictims {
			fr.nbrs = removeUser(g, u, fr, fr.nbrs)
		}
		fr.ids = liveIDs(fr.ids, g.NumItems(), g.ItemAlive)
		items := len(fr.ids)
		iVictims := squareRoundItems(ctx, g, p, fr.ids, pool, &fr.certI)
		a.squareRemovals(bipartite.ItemSide, iVictims, st.Rounds, ceilMul(p.K1, p.Alpha), p.K2)
		for _, v := range iVictims {
			fr.nbrs = removeItem(g, v, fr, fr.nbrs)
		}

		st.UsersRemoved += removed.UsersRemoved + len(uVictims)
		st.ItemsRemoved += removed.ItemsRemoved + len(iVictims)
		rsp.SetInt("core_users_removed", int64(removed.UsersRemoved))
		rsp.SetInt("core_items_removed", int64(removed.ItemsRemoved))
		rsp.SetInt("square_users_removed", int64(len(uVictims)))
		rsp.SetInt("square_items_removed", int64(len(iVictims)))
		rsp.SetInt("users", int64(users))
		rsp.SetInt("items", int64(items))
		rsp.End()
		o.Counter("core.frontier.evaluated").Add(int64(users + items))
		o.Counter("core.frontier.certified").Add(pool.certified.Swap(0))
		o.Counter("core.square.mask_passes").Add(pool.maskPasses.Swap(0))
		o.Counter("core.square.walks").Add(pool.walks.Swap(0))

		if err := ctx.Err(); err != nil {
			return st, err
		}
		if len(uVictims) == 0 && len(iVictims) == 0 {
			return st, nil
		}
	}
}

// liveIDs refills ids, in ascending order, with the n vertices of one side
// that alive reports live.
func liveIDs(ids []bipartite.NodeID, n int, alive func(bipartite.NodeID) bool) []bipartite.NodeID {
	ids = ids[:0]
	for id := range bipartite.NodeID(n) {
		if alive(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// removeUser removes live user x from g and returns its live items,
// collected into nbrs from x's raw row in arc order. On fr (nil for a peel
// outside any fixpoint) each of those items loses its certificate.
func removeUser(g *bipartite.Graph, x bipartite.NodeID, fr *frontier, nbrs []bipartite.NodeID) []bipartite.NodeID {
	nbrs = nbrs[:0]
	for _, a := range g.UserArcs(x) {
		if g.ItemAlive(a.To) {
			nbrs = append(nbrs, a.To)
		}
	}
	if fr != nil {
		for _, v := range nbrs {
			fr.certI.lost[v] = true
		}
	}
	g.RemoveUser(x)
	return nbrs
}

// removeItem is the item-side dual of removeUser.
func removeItem(g *bipartite.Graph, y bipartite.NodeID, fr *frontier, nbrs []bipartite.NodeID) []bipartite.NodeID {
	nbrs = nbrs[:0]
	for _, a := range g.ItemArcs(y) {
		if g.UserAlive(a.To) {
			nbrs = append(nbrs, a.To)
		}
	}
	if fr != nil {
		for _, u := range nbrs {
			fr.certU.lost[u] = true
		}
	}
	g.RemoveItem(y)
	return nbrs
}

// certificates are one side's survivor certificates for one fixpoint
// (DESIGN.md §10.6). A passing square test of vertex x finds, in order, the k
// vertices of its side whose common count with x reaches need — x itself
// among them — and records them as its witnesses. While no neighbour of x has
// died since, x's live neighbourhood is the one the test saw, so every
// witness still alive still reaches need with x and x passes again: holds
// lets a round skip the walk.
type certificates struct {
	k    int
	wit  []bipartite.NodeID // x's witnesses are wit[x*k:][:k]
	lost []bool             // x has no certificate that holds: until its first pass, after a failing test, once a neighbour dies
}

// reset readies cs for a fixpoint over n vertices with k witnesses each:
// no vertex holds a certificate.
func (cs *certificates) reset(n, k int) {
	cs.k = k
	cs.wit = resize(cs.wit, n*k)
	cs.lost = resize(cs.lost, n)
	for x := range cs.lost {
		cs.lost[x] = true
	}
}

// holds reports whether x's certificate still proves that x survives.
func (cs *certificates) holds(x bipartite.NodeID, alive func(bipartite.NodeID) bool) bool {
	if cs.lost[x] {
		return false
	}
	for _, w := range cs.wit[int(x)*cs.k:][:cs.k] {
		if !alive(w) {
			return false
		}
	}
	return true
}

// record keeps the outcome of x's square test; wit is what the test found,
// exactly k witnesses when it passed.
func (cs *certificates) record(x bipartite.NodeID, pass bool, wit []bipartite.NodeID) {
	cs.lost[x] = !pass
	if pass {
		copy(cs.wit[int(x)*cs.k:][:cs.k], wit)
	}
}

// corePruneFixpoint removes vertices violating the Lemma 1 degree bounds
// until stable, propagating removals through a work queue. Each removal is
// audited (a nil-safe) with the vertex's live degree at removal time and
// the round of the enclosing square fixpoint, and costs its neighbours
// their certificates on fr (nil for a peel outside any fixpoint).
func corePruneFixpoint(g *bipartite.Graph, p Params, a *auditor, round int, fr *frontier) PruneStats {
	var st PruneStats
	minUDeg := ceilMul(p.K2, p.Alpha)
	minIDeg := ceilMul(p.K1, p.Alpha)

	ps := peels.Get().(*peelScratch)
	queue := ps.queue[:0]
	nbrs := ps.nbrs[:0] // the live neighbors of the vertex last removed

	g.EachLiveUser(func(u bipartite.NodeID) bool {
		if g.UserDegree(u) < minUDeg {
			queue = append(queue, peelNode{u, bipartite.UserSide})
		}
		return true
	})
	g.EachLiveItem(func(v bipartite.NodeID) bool {
		if g.ItemDegree(v) < minIDeg {
			queue = append(queue, peelNode{v, bipartite.ItemSide})
		}
		return true
	})

	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if n.side == bipartite.UserSide {
			if !g.UserAlive(n.id) {
				continue
			}
			nbrs = removeUser(g, n.id, fr, nbrs)
			a.coreRemoval(bipartite.UserSide, n.id, round, len(nbrs), minUDeg)
			st.UsersRemoved++
			for _, v := range nbrs {
				if g.ItemAlive(v) && g.ItemDegree(v) < minIDeg {
					queue = append(queue, peelNode{v, bipartite.ItemSide})
				}
			}
		} else {
			if !g.ItemAlive(n.id) {
				continue
			}
			nbrs = removeItem(g, n.id, fr, nbrs)
			a.coreRemoval(bipartite.ItemSide, n.id, round, len(nbrs), minIDeg)
			st.ItemsRemoved++
			for _, u := range nbrs {
				if g.UserAlive(u) && g.UserDegree(u) < minUDeg {
					queue = append(queue, peelNode{u, bipartite.UserSide})
				}
			}
		}
	}
	ps.queue, ps.nbrs = queue, nbrs
	peels.Put(ps)
	return st
}

// peelNode is one entry of the core peel's stack.
type peelNode struct {
	id   bipartite.NodeID
	side bipartite.Side
}

// peelScratch is corePruneFixpoint's stack and neighbour buffer, leased
// from peels. The peel pushes a vertex again each time a removal drops it
// below its bound and skips it when it pops dead: that LIFO order, duplicates
// included, is the order of the audited removals and of RemovalEpoch.
type peelScratch struct {
	queue []peelNode
	nbrs  []bipartite.NodeID
}

var peels = sync.Pool{New: func() any { return new(peelScratch) }}

// commonCounter is a reusable dense counter for common-neighbor counting.
// countsU/countsI are indexed by vertex ID; touched remembers which slots to
// reset, keeping amortized cost proportional to work done.
type commonCounter struct {
	countsU   []int32
	countsI   []int32
	touched   []bipartite.NodeID
	nbrs      []bipartite.NodeID
	keys      []uint64           // sortByDegree scratch
	slots     []int32            // orderByDegree's per-degree cursors
	wit       []bipartite.NodeID // the candidates the last test counted at ≥ need, in order: a pass's witnesses
	steps     int                // arcs and mask words read by the masked user test, accumulated
	certified int                // vertices whose certificate held, since the counter was last pooled
	// Since the counter was last pooled: user passes settled by the heavy
	// list alone, and user and item tests that walked.
	maskPasses, walks int
}

// counters lends commonCounters to the square tests of every fixpoint. A
// counter's counts are all zero whenever it is not lent out (each test
// clears what it touched), and a lease grows them to the graph at hand, so
// steady-state rounds, shards and detections allocate no counter state.
var counters = sync.Pool{New: func() any { return new(commonCounter) }}

// counterPool leases counters sized to one fixpoint's graph. A counter
// handed back adds its tallies to the fixpoint's, so the workers of a round
// tally without sharing a word.
type counterPool struct {
	numUsers, numItems           int
	certified, maskPasses, walks atomic.Int64
}

func newCounterPool(numUsers, numItems int) *counterPool {
	return &counterPool{numUsers: numUsers, numItems: numItems}
}

func (cp *counterPool) get() *commonCounter {
	c := counters.Get().(*commonCounter)
	c.countsU = resize(c.countsU, cp.numUsers)
	c.countsI = resize(c.countsI, cp.numItems)
	return c
}

func (cp *counterPool) put(c *commonCounter) {
	cp.certified.Add(int64(c.certified))
	cp.maskPasses.Add(int64(c.maskPasses))
	cp.walks.Add(int64(c.walks))
	c.certified, c.maskPasses, c.walks = 0, 0, 0
	counters.Put(c)
}

// maxWide is the number of wide items a wideMasks indexes: one bit each of
// a machine word.
const maxWide = 64

// wideMasks lets the user-side square test skip the columns of the widest
// items. Crews ride a handful of hot items, so after core pruning nearly all
// of a user's 2-hop walk runs through a few dozen very long columns; the
// masks replace walking those columns by one AND + popcount per candidate.
//
// The wide set W (the ≤ 64 live items of highest live degree) and the user
// masks — bit i of user[y] says y has an arc to items[i] — are fixed for the
// whole fixpoint. Which of them still count is re-read before every round
// (refresh), which also narrows the heavy list H to the round's heavy users:
// the live users with at least need live wide items, the only ones that can
// share need items with anybody through W alone. A round evaluates against a
// frozen graph, so one reading serves all of its evaluations, on every
// worker. For live users u, y
//
//	common(u, y) = |{v ∉ W live : v ∈ N(u) ∩ N(y)}| + popcount(user[u] & user[y] & live)
//
// exactly, so the masked test decides the same predicate as a plain 2-hop walk
// whatever W is (DESIGN.md §10.5).
type wideMasks struct {
	items     []bipartite.NodeID // W; bit i stands for items[i]
	isWide    []bool             // item → whether it is in W
	user      []uint64           // user → the wide items it has an arc to
	live      uint64             // the bits of W whose item is still alive
	heavy     []bipartite.NodeID // H, ascending
	heavyMask []uint64           // heavyMask[j] = user[heavy[j]] & live
	keys      []uint64           // sortByDegree scratch
}

// build fixes W and the user masks for a fixpoint on g, reusing wm's
// buffers, and lists in H every user with at least need wide items: the
// heavy users of any round are among them.
func (wm *wideMasks) build(g *bipartite.Graph, need int) {
	items := wm.items[:0]
	g.EachLiveItem(func(v bipartite.NodeID) bool {
		items = append(items, v)
		return true
	})
	wm.keys = sortByDegree(items, g.ItemDegree, wm.keys)
	wm.items = append(items[:0], items[max(0, len(items)-maxWide):]...) // the widest are last
	wm.isWide = resize(wm.isWide, g.NumItems())
	wm.user = resize(wm.user, g.NumUsers())
	clear(wm.isWide)
	clear(wm.user)
	for i, v := range wm.items {
		wm.isWide[v] = true
		for _, a := range g.ItemArcs(v) {
			wm.user[a.To] |= 1 << i
		}
	}
	n := 0 // H is sized before it is filled, so a fresh frontier grows it once
	for _, my := range wm.user {
		if bits.OnesCount64(my) >= need {
			n++
		}
	}
	wm.heavy, wm.heavyMask = resize(wm.heavy, n)[:0], resize(wm.heavyMask, n)[:0]
	for y, my := range wm.user {
		if bits.OnesCount64(my) >= need {
			wm.heavy = append(wm.heavy, bipartite.NodeID(y))
			wm.heavyMask = append(wm.heavyMask, my)
		}
	}
}

// refresh re-reads liveness from g and narrows H to the round's heavy
// users: call it before every round's user evaluations, after the previous
// round's removals are applied. Liveness only falls, so H only shrinks.
func (wm *wideMasks) refresh(g *bipartite.Graph, need int) {
	wm.live = 0
	for i, v := range wm.items {
		if g.ItemAlive(v) {
			wm.live |= 1 << i
		}
	}
	h := 0
	for j, y := range wm.heavy {
		if my := wm.heavyMask[j] & wm.live; bits.OnesCount64(my) >= need && g.UserAlive(y) {
			wm.heavy[h], wm.heavyMask[h] = y, my
			h++
		}
	}
	wm.heavy, wm.heavyMask = wm.heavy[:h], wm.heavyMask[:h]
}

// counted is the count a user test gives a candidate the heavy-list pass has
// already taken as a witness: no increment brings it to need, and no finish
// takes it again.
const counted = math.MinInt32

// squareSurvivesUserWide reports whether user u has at least k1 users (itself
// included, per Definition 4: u trivially shares all deg(u) ≥ need neighbors
// with itself) whose common-item count with u is ≥ need.
//
// If u is heavy (u ∈ H), any user may qualify through wide items alone, and
// those that do are all in H. When walking u's live wide columns would cost
// at least |H|, the test first reads H's masks: every y with
// popcount(user[u] & user[y] & live) ≥ need is a witness, and k1 of them
// settle the pass with no walk. Otherwise u's live wide items are walked like
// any other item; either way one evaluation costs no more than the plain
// walk's Σ deg.
//
// The walk takes u's live items that are not settled by masks in ascending
// counterpart-degree order with an online exit: a vertex's (α,k)-neighbor
// count can only be certified after `need` items have been merged, and
// attack targets (low degree) certify their co-attackers long before the
// expensive hot-item adjacencies are touched — the candidate-ordering
// heuristic the paper adopts from reduce2Hop. The heavy-list witnesses are
// kept and marked counted, so the walk does not count them twice. The finish
// then adds, per touched candidate y the walk left short of need, the wide
// items y shares with u. A user neither touched nor heavy shares fewer than
// need wide items with u and no other item, so it cannot qualify; the
// untouched heavy ones that do were all taken by the heavy-list pass.
//
// Every candidate counted at ≥ need, by the heavy list, the walk or the
// finish, is appended to c.wit in the order found: on a pass, u's k1
// witnesses.
func squareSurvivesUserWide(g *bipartite.Graph, u bipartite.NodeID, need, k1 int, c *commonCounter, wm *wideMasks) bool {
	c.nbrs, c.wit, c.touched = c.nbrs[:0], c.wit[:0], c.touched[:0]
	mu := wm.user[u] & wm.live // the live wide items the walk leaves to masks; 0 walks them all
	num := 0
	if bits.OnesCount64(mu) >= need {
		wideSteps := 0 // what walking u's live wide columns would cost
		for m := mu; m != 0; m &= m - 1 {
			wideSteps += g.ItemDegree(wm.items[bits.TrailingZeros64(m)])
		}
		if wideSteps < len(wm.heavy) {
			mu = 0
		} else {
			for j, my := range wm.heavyMask {
				if bits.OnesCount64(my&mu) >= need {
					c.wit = append(c.wit, wm.heavy[j])
					if num++; num >= k1 {
						c.steps += j + 1
						c.maskPasses++
						return true
					}
				}
			}
			c.steps += len(wm.heavyMask)
			for _, y := range c.wit {
				c.countsU[y] = counted
			}
			c.touched = append(c.touched, c.wit...)
		}
	}

	c.walks++
	row := g.UserArcs(u)
	c.steps += len(row)
	for _, a := range row {
		if g.ItemAlive(a.To) && (mu == 0 || !wm.isWide[a.To]) {
			c.nbrs = append(c.nbrs, a.To)
		}
	}
	c.keys = sortByDegree(c.nbrs, g.ItemDegree, c.keys)
walk:
	for _, v := range c.nbrs {
		col := g.ItemArcs(v)
		c.steps += len(col)
		for _, a := range col {
			y := a.To
			if !g.UserAlive(y) {
				continue
			}
			n := c.countsU[y]
			if n == 0 {
				c.touched = append(c.touched, y)
			}
			c.countsU[y] = n + 1
			if int(n)+1 == need {
				c.wit = append(c.wit, y)
				if num++; num >= k1 {
					break walk
				}
			}
		}
	}
	// Finish: touched candidates the walk left short of need may get there
	// through the wide items they share with u. (Those already at need, and
	// the heavy-list witnesses, are counted.)
	if num < k1 && mu != 0 {
		c.steps += len(c.touched)
		for _, y := range c.touched {
			if n := int(c.countsU[y]); n < need && n+bits.OnesCount64(wm.user[y]&mu) >= need {
				c.wit = append(c.wit, y)
				if num++; num >= k1 {
					break
				}
			}
		}
	}
	for _, y := range c.touched {
		c.countsU[y] = 0
	}
	return num >= k1
}

// squareSurvivesItem is the item-side dual of squareSurvivesUserWide, by a
// plain 2-hop walk over the raw arcs: whether item v has at least k2 items
// (itself included) sharing ≥ need live users with it. Its witnesses go to
// c.wit in the same way.
func squareSurvivesItem(g *bipartite.Graph, v bipartite.NodeID, need, k2 int, c *commonCounter) bool {
	c.nbrs, c.wit, c.touched = c.nbrs[:0], c.wit[:0], c.touched[:0]
	c.walks++
	for _, a := range g.ItemArcs(v) {
		if g.UserAlive(a.To) {
			c.nbrs = append(c.nbrs, a.To)
		}
	}
	c.orderByDegree(g.UserDegree)

	num := 0
walk:
	for _, u := range c.nbrs {
		for _, a := range g.UserArcs(u) {
			v2 := a.To
			if !g.ItemAlive(v2) {
				continue
			}
			n := c.countsI[v2]
			if n == 0 {
				c.touched = append(c.touched, v2)
			}
			c.countsI[v2] = n + 1
			if int(n)+1 == need {
				c.wit = append(c.wit, v2)
				if num++; num >= k2 {
					break walk
				}
			}
		}
	}
	for _, v2 := range c.touched {
		c.countsI[v2] = 0
	}
	return num >= k2
}

// sortByDegree orders ids ascending by (degree, id). Each id is packed once
// into a uint64 key — degree in the high 32 bits, id in the low 32 — so the
// sort runs over plain integers with no per-comparison closure and no
// repeated deg() calls (this sits in the square-pruning inner loop), and the
// NodeID tie-break falls out of the packing. keys is the caller's scratch
// buffer; the (possibly grown) buffer is returned for reuse.
func sortByDegree(ids []bipartite.NodeID, deg func(bipartite.NodeID) int, keys []uint64) []uint64 {
	keys = keys[:0]
	for _, id := range ids {
		keys = append(keys, uint64(uint32(deg(id)))<<32|uint64(id))
	}
	slices.Sort(keys)
	for i, k := range keys {
		ids[i] = bipartite.NodeID(uint32(k))
	}
	return keys
}

// orderByDegree puts c.nbrs, which must ascend by ID, in sortByDegree's
// (degree, ID) order: as they are when all share one degree, otherwise by a
// stable counting pass over the degrees, which keeps each degree's IDs in
// their input order. That costs n plus the degree range, so a range wider
// than n·log₂n takes sortByDegree instead.
func (c *commonCounter) orderByDegree(deg func(bipartite.NodeID) int) {
	ids, keys := c.nbrs, c.keys[:0]
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for _, id := range ids {
		d := uint32(deg(id))
		lo, hi = min(lo, d), max(hi, d)
		keys = append(keys, uint64(d)<<32|uint64(id))
	}
	c.keys = keys
	switch n := len(ids); {
	case hi <= lo:
	case int(hi-lo) > n*bits.Len(uint(n)):
		c.keys = sortByDegree(ids, deg, keys)
	default:
		slots := resize(c.slots, int(hi-lo)+2)
		clear(slots)
		for _, k := range keys {
			slots[uint32(k>>32)-lo+1]++
		}
		for d := 1; d < len(slots); d++ {
			slots[d] += slots[d-1]
		}
		for _, k := range keys {
			d := uint32(k>>32) - lo
			ids[slots[d]] = bipartite.NodeID(uint32(k))
			slots[d]++
		}
		c.slots = slots
	}
}

// squareRoundUsers evaluates the user-side square condition for the given
// live users against the frozen graph, in parallel, and returns the victims
// in candidate order. A candidate whose certificate in cert holds survives
// without a walk; every walk leaves a new one. wide must have been refreshed
// for this round.
func squareRoundUsers(ctx context.Context, g *bipartite.Graph, p Params, ids []bipartite.NodeID, pool *counterPool, wide *wideMasks, cert *certificates) []bipartite.NodeID {
	need := ceilMul(p.K2, p.Alpha)
	return parallelFilter(ctx, ids, p.workers(), func(c *commonCounter, u bipartite.NodeID) bool {
		if cert.holds(u, g.UserAlive) {
			c.certified++
			return false
		}
		if h := testSquareEvalHook; h != nil {
			h(bipartite.UserSide, u)
		}
		pass := squareSurvivesUserWide(g, u, need, p.K1, c, wide)
		cert.record(u, pass, c.wit)
		return !pass
	}, pool)
}

// squareRoundItems is the item-side dual of squareRoundUsers.
func squareRoundItems(ctx context.Context, g *bipartite.Graph, p Params, ids []bipartite.NodeID, pool *counterPool, cert *certificates) []bipartite.NodeID {
	need := ceilMul(p.K1, p.Alpha)
	return parallelFilter(ctx, ids, p.workers(), func(c *commonCounter, v bipartite.NodeID) bool {
		if cert.holds(v, g.ItemAlive) {
			c.certified++
			return false
		}
		if h := testSquareEvalHook; h != nil {
			h(bipartite.ItemSide, v)
		}
		pass := squareSurvivesItem(g, v, need, p.K2, c)
		cert.record(v, pass, c.wit)
		return !pass
	}, pool)
}

// filterGrain is how many consecutive IDs a square-round worker takes at a
// time: small enough that no worker is left with a dear tail while another
// idles, large enough that the shared cursor is touched rarely.
const filterGrain = 32

// parallelFilter returns the IDs for which pred is true, in input order,
// evaluated on parallelFor in grains of filterGrain IDs with one counter
// leased from pool per worker. A cancelled round's output is truncated; the
// fixpoint loops re-check ctx after applying it.
func parallelFilter(ctx context.Context, ids []bipartite.NodeID, workers int,
	pred func(*commonCounter, bipartite.NodeID) bool, pool *counterPool) []bipartite.NodeID {

	keep := make([]bool, len(ids))
	parallelFor(ctx, len(ids), workers, filterGrain, func(w *worker) {
		c := pool.get()
		for w.next() {
			for i := w.lo; i < w.hi; i++ {
				keep[i] = pred(c, ids[i])
			}
		}
		pool.put(c) // not deferred: a counter a panicking test left dirty is dropped
	})
	var out []bipartite.NodeID
	for i, k := range keep {
		if k {
			out = append(out, ids[i])
		}
	}
	return out
}
