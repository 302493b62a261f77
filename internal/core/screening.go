package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// This file implements the Suspicious Group Screening module: the user
// behavior check (Fig 5) and the item behavior verification (Fig 6). Both
// steps read only a candidate's in-group edges, with their real click
// weights, against the marketplace-wide hot classification — so the graph
// they read is either the original click graph or the compact shard graph
// the candidate was extracted from, which holds those edges unchanged.

// userBehaviorCheck filters a candidate group's users down to those whose
// in-group click pattern matches the crowd-worker profile of Section IV-A:
//
//	(1) at least one in-group ordinary (non-hot) item clicked ≥ T_click
//	    times — the attack signature of Fig 5;
//	(2) optionally (MaxHotAvg > 0), average clicks on in-group hot items
//	    below MaxHotAvg — attackers touch hot items as little as possible
//	    (Section IV-A characteristic (2); optimal strategy: once).
//
// In the paper's Fig 5 example this is what removes u₁, whose only strong
// edges go to a hot item. Every dropped user produces a screen.drop event on
// a (nil audits nothing) carrying the failed check and the statistic that
// failed it; group is the 1-based candidate-group index. m is the calling
// worker's membership scratch, left clear on return.
func userBehaviorCheck(g *bipartite.Graph, grp detect.Group, hot *HotSet, p Params,
	a *auditor, group int, m *groupMarks) []bipartite.NodeID {

	inGroup := m.markItems(g, grp.Items)
	defer unmark(inGroup, grp.Items)
	var kept []bipartite.NodeID
	for _, u := range grp.Users {
		var hotClicks, hotEdges int
		var maxOrdinary uint32
		hasAttackEdge := false
		g.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
			if !inGroup[v] {
				return true
			}
			if hot.IsHot(v) {
				hotClicks += int(w)
				hotEdges++
			} else {
				if w > maxOrdinary {
					maxOrdinary = w
				}
				if w >= p.TClick {
					hasAttackEdge = true
				}
			}
			return true
		})
		if !hasAttackEdge {
			a.dropUserNoAttackEdge(group, u, maxOrdinary, p.TClick)
			continue
		}
		if p.MaxHotAvg > 0 && hotEdges > 0 {
			if avg := float64(hotClicks) / float64(hotEdges); avg >= p.MaxHotAvg {
				a.dropUserHotAvg(group, u, avg, p.MaxHotAvg)
				continue
			}
		}
		kept = append(kept, u)
	}
	return kept
}

// itemBehaviorVerification filters a group's items down to verified attack
// targets, given the users that survived the user behavior check:
//
//   - hot items are excluded — they are the ridden victims, not targets;
//   - an ordinary item is a verified target iff at least ⌈α·k₁⌉ surviving
//     users clicked it ≥ T_click times (the clicked-user-set coincidence
//     test of Fig 6 — targets of one group share their attacker set);
//   - an ordinary item whose in-group clicks sit far below the users'
//     target clicks is camouflage (the C³₂ ≫ C³₁ case of Fig 6) and is
//     dropped by the same supporter test, since camouflage weights sit far
//     below T_click.
//
// Hot exclusions and failed supporter tests produce typed screen.drop events
// on a.
func itemBehaviorVerification(g *bipartite.Graph, items []bipartite.NodeID,
	users []bipartite.NodeID, hot *HotSet, p Params, a *auditor, group int, m *groupMarks) []bipartite.NodeID {

	userSet := m.markUsers(g, users)
	defer unmark(userSet, users)
	minSupporters := ceilMul(p.K1, p.Alpha)
	var kept []bipartite.NodeID
	for _, v := range items {
		if hot.IsHot(v) {
			a.dropItemHot(group, v)
			continue
		}
		supporters := 0
		verified := false
		g.EachItemNeighbor(v, func(u bipartite.NodeID, w uint32) bool {
			if userSet[u] && w >= p.TClick {
				supporters++
				if supporters >= minSupporters {
					verified = true
					return false
				}
			}
			return true
		})
		if verified {
			kept = append(kept, v)
		} else {
			a.dropItemSupporters(group, v, supporters, minSupporters)
		}
	}
	return kept
}

// ScreenGroupsCtx applies the full screening module to candidate groups and
// re-partitions the survivors: removing hot items can split a merged
// component (several attack groups riding the same hot items) back into its
// true attack groups, so survivors are re-clustered by connected components
// of the induced verified subgraph and the Definition 3 size bounds are
// re-applied (property (4b)). The user-check and item-verification passes
// become child spans of sp, and candidate in/out counts feed o's registry
// under core.screen.*; nil sp/o observe nothing. It is Screen with every
// group on g, so overlapping groups re-partition together.
//
// ctx is checked before each candidate group (fault-injection site
// "core.screen.group"). On cancellation the groups fully screened so far
// still go through the cheap repartition, so the partial output obeys the
// same contract as a complete one (every returned group is screened and
// satisfies the Definition 3 size bounds) — it may just be missing groups.
func ScreenGroupsCtx(ctx context.Context, g *bipartite.Graph, groups []detect.Group,
	hot *HotSet, p Params, sp *obs.Span, o *obs.Observer) ([]detect.Group, error) {

	on := &screenGraph{g: g, hot: hot}
	cands := make([]candidate, len(groups))
	for i, grp := range groups {
		cands[i] = candidate{Group: grp, local: localGroup{Users: grp.Users, Items: grp.Items}, on: on}
	}
	return extractOutcome{cands: cands, graphs: []*screenGraph{on}}.Screen(ctx, p, sp, o)
}

// Screen is Module 2 over an extraction outcome: every candidate is screened
// on its own graph and each graph's survivors are re-partitioned on that
// graph. This equals re-partitioning all survivors on the original graph: a
// shard graph is one component of the core-pruned graph, and its candidates
// are distinct residual components of it — pruning removes vertices, never
// edges, so an edge between two survivors would have put them in one
// candidate. For the same reason a shard-graph candidate that screening left
// whole is its own repartition. Spans, metrics and cancellation:
// ScreenGroupsCtx's.
func (outc extractOutcome) Screen(ctx context.Context, p Params,
	sp *obs.Span, o *obs.Observer) ([]detect.Group, error) {

	var usersIn, itemsIn, usersKept, itemsKept int
	for _, c := range outc.cands {
		usersIn += len(c.Users)
		itemsIn += len(c.Items)
	}
	csp := sp.Start("behavior_checks")
	kept, ctxErr := behaviorChecks(ctx, outc.cands, p, newAuditor(o))
	for _, k := range kept {
		usersKept += len(k.Users)
		itemsKept += len(k.Items)
	}
	csp.SetInt("users_in", int64(usersIn))
	csp.SetInt("users_kept", int64(usersKept))
	csp.SetInt("items_in", int64(itemsIn))
	csp.SetInt("items_kept", int64(itemsKept))
	csp.End()
	o.Counter("core.screen.groups_in").Add(int64(len(outc.cands)))
	o.Counter("core.screen.users_dropped").Add(int64(usersIn - usersKept))
	o.Counter("core.screen.items_dropped").Add(int64(itemsIn - itemsKept))

	var out []detect.Group
	if usersKept > 0 {
		rsp := sp.Start("repartition")
		for i, c := range outc.cands {
			// Only a shard graph (one with ID maps) holds its candidates as
			// distinct residual components.
			if k := kept[i]; c.on.userOf != nil && len(k.Users) == len(c.Users) && len(k.Items) == len(c.Items) {
				c.on.screened = append(c.on.screened, k)
			} else {
				c.on.users = append(c.on.users, k.Users...)
				c.on.items = append(c.on.items, k.Items...)
			}
		}
		for _, on := range outc.graphs {
			out = append(out, on.repartition(p)...)
		}
		rsp.SetInt("groups_out", int64(len(out)))
		rsp.End()
		o.Counter("core.screen.groups_out").Add(int64(len(out)))
	}
	sortGroupsCanonical(out)
	return out, ctxErr
}

// behaviorChecks runs screenOne on every candidate's graph on a pool of up
// to p.workers() goroutines and returns each candidate's supported users and
// verified items in its graph's IDs; candidates are independent, so the
// output does not depend on scheduling. Each worker screens with its own
// membership scratch (groupMarks), so candidates sharing one graph never
// share a buffer. ctx is checked before each candidate
// (fault-injection site "core.screen.group"); on cancellation the candidates
// screened before it keep their output, each individually sound. A panic is
// rethrown on the caller's goroutine for the stage isolation. Audit events
// carry the candidate's 1-based position and original IDs.
func behaviorChecks(ctx context.Context, cands []candidate, p Params,
	a *auditor) (kept []localGroup, ctxErr error) {

	kept = make([]localGroup, len(cands))
	done := make([]bool, len(cands))
	panicked := make([]any, len(cands))
	screen := func(i int, m *groupMarks) bool {
		defer func() { panicked[i] = recover() }()
		faultinject.Hit("core.screen.group")
		if ctx.Err() != nil {
			return false
		}
		c := cands[i]
		kept[i].Users, kept[i].Items = screenOne(c.on.g, detect.Group{Users: c.local.Users, Items: c.local.Items},
			c.on.hot, p, a.forShard(0, c.on.userOf, c.on.itemOf), i+1, m)
		done[i] = true
		return true
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := min(p.workers(), len(cands)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := getMarks()
			defer putMarks(m)
			for {
				if i := int(next.Add(1)) - 1; i >= len(cands) || !screen(i, m) {
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range cands {
		if panicked[i] != nil {
			panic(panicked[i])
		}
		if !done[i] {
			ctxErr = ctx.Err()
		}
	}
	return kept, ctxErr
}

// repartition adds to on.screened the connected components of the
// survivors' induced subgraph on on.g that meet the size bounds, and
// returns on.screened in original IDs.
func (on *screenGraph) repartition(p Params) []detect.Group {
	if len(on.users) > 0 {
		sub, err := bipartite.InducedSubgraph(on.g, on.users, on.items)
		if err != nil {
			// IDs came from on.g itself; out-of-range is impossible.
			panic("core: screening produced invalid IDs: " + err.Error())
		}
		for _, comp := range bipartite.ConnectedComponents(sub) {
			if len(comp.Users) >= p.K1 && len(comp.Items) >= p.K2 {
				on.screened = append(on.screened, localGroup{Users: comp.Users, Items: comp.Items})
			}
		}
	}
	return translateGroups(on.screened, on.userOf, on.itemOf)
}

// screenOne applies the user behavior check and item behavior verification
// to one candidate group. It returns the supported users and verified items,
// both possibly empty: a dissolved group contributes nothing. group is the
// 1-based candidate index stamped on audit events; m is the calling worker's
// membership scratch, left clear on return.
func screenOne(g *bipartite.Graph, grp detect.Group, hot *HotSet, p Params,
	a *auditor, group int, m *groupMarks) (users, items []bipartite.NodeID) {

	checked := userBehaviorCheck(g, grp, hot, p, a, group, m)
	if len(checked) == 0 {
		// The group dissolved at the user check; its items fall with it.
		for _, v := range grp.Items {
			a.dropItemGroupDissolved(group, v)
		}
		return nil, nil
	}
	items = itemBehaviorVerification(g, grp.Items, checked, hot, p, a, group, m)
	if len(items) == 0 {
		// The group dissolved at item verification: every remaining user
		// lost their targets, which the per-item events already explain.
		for _, u := range checked {
			a.dropUserNoVerifiedTarget(group, u)
		}
		return nil, nil
	}
	// A user must still support at least one verified target;
	// users whose only strong edges went to unverified items drop out.
	itemSet := m.markItems(g, items)
	defer unmark(itemSet, items)
	for _, u := range checked {
		supports := false
		g.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
			if itemSet[v] && w >= p.TClick {
				supports = true
				return false
			}
			return true
		})
		if supports {
			users = append(users, u)
		} else {
			a.dropUserNoVerifiedTarget(group, u)
		}
	}
	return users, items
}

// groupMarks is one goroutine's membership scratch: a flag per user and per
// item of the graph being read. A check sets the flags of one group's
// members, reads them per arc, and clears the same members before it
// returns, so setting, reading and clearing all cost the group, not the
// graph, and one buffer — grown to the largest graph it meets — serves every
// group its goroutine checks. The flags are all clear whenever a buffer is
// not lent out.
type groupMarks struct{ users, items []bool }

// marksPool keeps groupMarks across detections: every sweep screens on the
// same graph sizes, so a pooled buffer is already grown.
var marksPool = sync.Pool{New: func() any { return new(groupMarks) }}

// testMarksHook, when non-nil, sees every groupMarks as it goes back to
// marksPool. Tests use it to check the buffers come back clear; it selects
// nothing.
var testMarksHook func(*groupMarks)

func getMarks() *groupMarks { return marksPool.Get().(*groupMarks) }

func putMarks(m *groupMarks) {
	if h := testMarksHook; h != nil {
		h(m)
	}
	marksPool.Put(m)
}

// markUsers flags users (IDs of g) and returns the flags, indexable by any
// user of g. The caller clears them with unmark(flags, users).
func (m *groupMarks) markUsers(g *bipartite.Graph, users []bipartite.NodeID) []bool {
	return mark(&m.users, g.NumUsers(), users)
}

// markItems is markUsers for items.
func (m *groupMarks) markItems(g *bipartite.Graph, items []bipartite.NodeID) []bool {
	return mark(&m.items, g.NumItems(), items)
}

// mark grows *flags to at least n (growing replaces the clear buffer with a
// clear one) and sets the flag of every id.
func mark(flags *[]bool, n int, ids []bipartite.NodeID) []bool {
	if len(*flags) < n {
		*flags = make([]bool, n)
	}
	f := *flags
	for _, id := range ids {
		f[id] = true
	}
	return f
}

// unmark clears the flags mark set for ids.
func unmark(flags []bool, ids []bipartite.NodeID) {
	for _, id := range ids {
		flags[id] = false
	}
}
