package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
)

// maskShape is one family of random graphs for the masked-kernel property.
// Every user clicks each of the `hot` head items with probability pHot and
// `tail` items from the rest: drawn uniformly, or — with crew > 0 — the
// `tail` target items its crew of that many consecutive users shares.
type maskShape struct {
	name            string
	users, items    int
	hot, tail, crew int
	pHot            float64
	k1, k2          int
	alpha           float64
	// The paths the shape must take at least once: a pass on the heavy list
	// alone, a pass whose heavy-list witnesses the walk never touched
	// (heavy users that walk), users with 1…need−1 live wide items, and
	// heavy users whose wide columns are short enough to walk.
	wantMaskPass, wantHeavyFinish, wantShort, wantWalked bool
}

var maskShapes = []maskShape{
	// The marketplace: a hot head far wider than the tail, more than 64 items.
	{name: "hot head, long tail", users: 400, items: 200, hot: 8, tail: 5, pHot: 0.6,
		k1: 4, k2: 4, alpha: 1, wantMaskPass: true, wantHeavyFinish: true, wantShort: true, wantWalked: true},
	// blocks_resweep: at most 64 items, so every item is wide and nothing is walked.
	{name: "every item wide", users: 300, items: 16, hot: 16, tail: 0, pHot: 0.8,
		k1: 10, k2: 10, alpha: 1, wantMaskPass: true, wantShort: true},
	// Crews smaller than k1 on private targets: the walk certifies a user's
	// crew mates, the masks must add the rest without counting them twice.
	{name: "crews on private targets", users: 400, items: 6 + 80*5, hot: 6, tail: 5, crew: 5, pHot: 0.4,
		k1: 12, k2: 4, alpha: 1, wantMaskPass: true, wantHeavyFinish: true, wantShort: true, wantWalked: true},
	{name: "alpha below one, k1 != k2", users: 300, items: 150, hot: 10, tail: 4, pHot: 0.5,
		k1: 3, k2: 7, alpha: 0.6, wantMaskPass: true, wantHeavyFinish: true, wantShort: true},
	{name: "need = 1", users: 300, items: 120, hot: 4, tail: 2, pHot: 0.3,
		k1: 5, k2: 1, alpha: 1, wantMaskPass: true, wantWalked: true},
	// No head at all: 64 of 100 equally narrow items are "wide", and their
	// columns are shorter than the heavy list.
	{name: "flat degrees", users: 2000, items: 100, hot: 0, tail: 5, pHot: 0,
		k1: 3, k2: 2, alpha: 1, wantWalked: true, wantShort: true},
}

func (s maskShape) need() int { return ceilMul(s.k2, s.alpha) }

func (s maskShape) graph(rng *rand.Rand) *bipartite.Graph {
	b := bipartite.NewBuilder(s.users, s.items)
	for u := 0; u < s.users; u++ {
		for v := 0; v < s.hot; v++ {
			if rng.Float64() < s.pHot {
				b.Add(bipartite.NodeID(u), bipartite.NodeID(v), 1)
			}
		}
		for i := 0; i < s.tail; i++ {
			v := s.hot + rng.Intn(s.items-s.hot)
			if s.crew > 0 {
				v = s.hot + u/s.crew*s.tail + i
			}
			b.Add(bipartite.NodeID(u), bipartite.NodeID(v), 1)
		}
	}
	return b.Build()
}

// maskedGraph draws a graph of shape s and its masks as two fixpoint rounds
// see them: built and refreshed, then — after removals made since, a random
// share of both sides (none for one seed in three, else always one wide
// item too) — refreshed again.
func (s maskShape) maskedGraph(rng *rand.Rand) (*bipartite.Graph, *wideMasks) {
	g := s.graph(rng)
	wm := newWideMasks(g, s.need())
	wm.refresh(g, s.need())
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
	if share > 0 {
		g.RemoveItem(wm.items[rng.Intn(len(wm.items))])
	}
	wm.refresh(g, s.need())
	return g, wm
}

// walkBound is what the plain walk reads for u: its own row plus the column
// of each of its live items.
func walkBound(g *bipartite.Graph, u bipartite.NodeID) int {
	n := len(g.UserArcs(u))
	for _, a := range g.UserArcs(u) {
		if g.ItemAlive(a.To) {
			n += len(g.ItemArcs(a.To))
		}
	}
	return n
}

// checkHeavyList returns an error unless wm's heavy list is the one its
// definition names for g: the live users with ≥ need live wide items, in
// ascending order, each beside its live wide items.
func checkHeavyList(g *bipartite.Graph, wm *wideMasks, need int) error {
	var ids []bipartite.NodeID
	var masks []uint64
	g.EachLiveUser(func(y bipartite.NodeID) bool {
		var m uint64
		for i, v := range wm.items {
			if g.ItemAlive(v) && g.HasEdge(y, v) {
				m |= 1 << i
			}
		}
		if bits.OnesCount64(m) >= need {
			ids, masks = append(ids, y), append(masks, m)
		}
		return true
	})
	if !slices.Equal(wm.heavy, ids) || !slices.Equal(wm.heavyMask, masks) {
		return fmt.Errorf("heavy list %v %x, want %v %x", wm.heavy, wm.heavyMask, ids, masks)
	}
	return nil
}

// TestPropertyWideMasksMatchPlainWalk: on random graphs, after random
// removals made since the masks were built and first refreshed, the heavy
// list is exactly its definition, and the masked user test gives the plain
// walk's verdict for every live user and never reads more than twice what
// the plain walk reads.
func TestPropertyWideMasksMatchPlainWalk(t *testing.T) {
	for _, s := range maskShapes {
		t.Run(s.name, func(t *testing.T) {
			need := s.need()
			var maskPass, heavyFinish, short, walked, deadWide, survive, fail int
			f := func(seed int64) bool {
				g, wm := s.maskedGraph(rand.New(rand.NewSource(seed)))
				if s.items <= maxWide {
					for v := range wm.isWide {
						if !wm.isWide[v] {
							t.Logf("seed %d: item %d of %d is not wide", seed, v, s.items)
							return false
						}
					}
				}
				if err := checkHeavyList(g, wm, need); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				deadWide += len(wm.items) - bits.OnesCount64(wm.live)

				c := newCommonCounter(g.NumUsers(), g.NumItems())
				ok := true
				g.EachLiveUser(func(u bipartite.NodeID) bool {
					mu := wm.user[u] & wm.live
					wide, wideSteps := bits.OnesCount64(mu), 0
					for m := mu; m != 0; m &= m - 1 {
						wideSteps += g.ItemDegree(wm.items[bits.TrailingZeros64(m)])
					}

					want := refUserSurvives(g, u, need, s.k1)
					c.steps, c.maskPasses = 0, 0
					got := squareSurvivesUserWide(g, u, need, s.k1, c, wm)
					if got != want {
						t.Logf("seed %d: user %d: masked %v, plain walk %v", seed, u, got, want)
						ok = false
					}
					if bound := 2 * walkBound(g, u); c.steps > bound {
						t.Logf("seed %d: user %d: masked test read %d, twice the plain walk is %d", seed, u, c.steps, bound)
						ok = false
					}
					heavy := wide >= need
					switch {
					case heavy && wideSteps < len(wm.heavy):
						walked++
					case heavy && c.maskPasses > 0:
						maskPass++
					case heavy && got && slices.ContainsFunc(c.wit, func(y bipartite.NodeID) bool {
						// y shares no live item outside W with u: the walk never touched it.
						return y != u && commonUsers(g, u, y) == bits.OnesCount64(mu&wm.user[y])
					}):
						heavyFinish++
					case !heavy && wide > 0:
						short++
					}
					if want {
						survive++
					} else {
						fail++
					}
					return ok
				})
				return ok
			}
			cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d mask passes, %d heavy finishes with an untouched witness, %d short, %d walked wide", maskPass, heavyFinish, short, walked)
			if survive == 0 || fail == 0 {
				t.Errorf("one-sided workload: %d users passed, %d failed", survive, fail)
			}
			if deadWide == 0 {
				t.Error("no wide item died after the masks were built")
			}
			if s.wantMaskPass && maskPass == 0 {
				t.Error("no user passed on the heavy list alone")
			}
			if s.wantHeavyFinish && heavyFinish == 0 {
				t.Error("no heavy user that walked passed on a heavy-list witness the walk never touched")
			}
			if s.wantShort && short == 0 {
				t.Error("no user took the touched-candidates finish")
			}
			if s.wantWalked && walked == 0 {
				t.Error("no heavy user walked its wide items")
			}
		})
	}
}

// TestWideMaskScanNeverCostsMoreThanTheWalk: where no item is wide in any
// real sense — 5000 users, 100 items of ≈ 300 users each — reading the
// heavy list, which holds most users, would cost more than walking a user's
// whole 2-hop neighborhood, so the masked test must not do it: per-vertex
// work stays O(Σ deg), not O(users).
func TestWideMaskScanNeverCostsMoreThanTheWalk(t *testing.T) {
	s := maskShape{users: 5000, items: 100, tail: 6}
	g := s.graph(rand.New(rand.NewSource(3)))
	const need = 2
	wm := newWideMasks(g, need)
	wm.refresh(g, need)
	c := newCommonCounter(g.NumUsers(), g.NumItems())
	wideEnough := 0
	g.EachLiveUser(func(u bipartite.NodeID) bool {
		if bits.OnesCount64(wm.user[u]&wm.live) >= need {
			wideEnough++
		}
		bound := 2 * walkBound(g, u)
		if bound >= len(wm.heavy) {
			t.Fatalf("user %d: twice its walk (%d) is not below the heavy list's %d users; the graph proves nothing", u, bound, len(wm.heavy))
		}
		c.steps = 0
		// k1 beyond the user count: no online exit, the full cost is paid.
		squareSurvivesUserWide(g, u, need, g.NumUsers()+1, c, wm)
		if c.steps > bound {
			t.Fatalf("user %d: masked test read %d, twice the plain walk is %d (heavy users: %d)", u, c.steps, bound, len(wm.heavy))
		}
		return true
	})
	if wideEnough < g.NumUsers()/2 {
		t.Fatalf("only %d of %d users have ≥ %d wide items; the scan branch was never in question", wideEnough, g.NumUsers(), need)
	}
}
