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
// steps read the ORIGINAL click graph — screening judges behavior against
// real weights and the marketplace-wide hot classification, not against the
// pruned residual.

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
// failed it; group is the 1-based candidate-group index.
func userBehaviorCheck(g *bipartite.Graph, grp detect.Group, hot *HotSet, p Params,
	a *auditor, group int) []bipartite.NodeID {

	inGroup := make(map[bipartite.NodeID]bool, len(grp.Items))
	for _, v := range grp.Items {
		inGroup[v] = true
	}
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
	users []bipartite.NodeID, hot *HotSet, p Params, a *auditor, group int) []bipartite.NodeID {

	userSet := make(map[bipartite.NodeID]bool, len(users))
	for _, u := range users {
		userSet[u] = true
	}
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
// under core.screen.*; nil sp/o observe nothing.
//
// ctx is checked before each candidate group (fault-injection site
// "core.screen.group"). On cancellation the groups fully screened so far
// still go through the cheap repartition, so the partial output obeys the
// same contract as a complete one (every returned group is screened and
// satisfies the Definition 3 size bounds) — it may just be missing groups.
func ScreenGroupsCtx(ctx context.Context, g *bipartite.Graph, groups []detect.Group,
	hot *HotSet, p Params, sp *obs.Span, o *obs.Observer) ([]detect.Group, error) {

	var usersIn, itemsIn int
	for _, grp := range groups {
		usersIn += len(grp.Users)
		itemsIn += len(grp.Items)
	}

	var ctxErr error
	a := newAuditor(o)
	csp := sp.Start("behavior_checks")
	var allUsers, allItems []bipartite.NodeID
	if p.workers() > 1 && len(groups) > 1 {
		allUsers, allItems, ctxErr = screenParallel(ctx, g, groups, hot, p, a)
	} else {
		for i, grp := range groups {
			faultinject.Hit("core.screen.group")
			if ctxErr = ctx.Err(); ctxErr != nil {
				break
			}
			users, items := screenOne(g, grp, hot, p, a, i+1)
			allUsers = append(allUsers, users...)
			allItems = append(allItems, items...)
		}
	}
	csp.SetInt("users_in", int64(usersIn))
	csp.SetInt("users_kept", int64(len(allUsers)))
	csp.SetInt("items_in", int64(itemsIn))
	csp.SetInt("items_kept", int64(len(allItems)))
	csp.End()
	o.Counter("core.screen.groups_in").Add(int64(len(groups)))
	o.Counter("core.screen.users_dropped").Add(int64(usersIn - len(allUsers)))
	o.Counter("core.screen.items_dropped").Add(int64(itemsIn - len(allItems)))
	if len(allUsers) == 0 || len(allItems) == 0 {
		return nil, ctxErr
	}

	rsp := sp.Start("repartition")
	sub, err := bipartite.InducedSubgraph(g, allUsers, allItems)
	if err != nil {
		// IDs came from g itself; out-of-range is impossible.
		panic("core: screening produced invalid IDs: " + err.Error())
	}
	var out []detect.Group
	for _, comp := range bipartite.ConnectedComponents(sub) {
		if len(comp.Users) >= p.K1 && len(comp.Items) >= p.K2 {
			out = append(out, detect.Group{Users: comp.Users, Items: comp.Items})
		}
	}
	rsp.SetInt("groups_out", int64(len(out)))
	rsp.End()
	o.Counter("core.screen.groups_out").Add(int64(len(out)))
	return out, ctxErr
}

// screenOne applies the user behavior check and item behavior verification
// to one candidate group. It returns the supported users and verified items,
// both possibly empty: a dissolved group contributes nothing. group is the
// 1-based candidate index stamped on audit events.
func screenOne(g *bipartite.Graph, grp detect.Group, hot *HotSet, p Params,
	a *auditor, group int) (users, items []bipartite.NodeID) {

	checked := userBehaviorCheck(g, grp, hot, p, a, group)
	if len(checked) == 0 {
		// The group dissolved at the user check; its items fall with it.
		for _, v := range grp.Items {
			a.dropItemGroupDissolved(group, v)
		}
		return nil, nil
	}
	items = itemBehaviorVerification(g, grp.Items, checked, hot, p, a, group)
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
	itemSet := make(map[bipartite.NodeID]bool, len(items))
	for _, v := range items {
		itemSet[v] = true
	}
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

// screenParallel screens the candidate groups on a bounded worker pool.
// Groups are independent of each other during behavior checks (only the
// final repartition is cross-group, and it is set-based), so accumulating
// per-group outputs in index order makes the result identical to the serial
// loop's. On cancellation the groups fully screened before the cancel are
// kept — each is individually sound, matching the serial partial contract.
// A panic inside a worker is rethrown on the caller's goroutine so the
// DetectContext stage isolation sees it exactly like a serial panic.
func screenParallel(ctx context.Context, g *bipartite.Graph, groups []detect.Group,
	hot *HotSet, p Params, a *auditor) (allUsers, allItems []bipartite.NodeID, ctxErr error) {

	type screenOut struct {
		users, items []bipartite.NodeID
		done         bool
		panicked     any
	}
	outs := make([]screenOut, len(groups))
	pool := p.workers()
	if pool > len(groups) {
		pool = len(groups)
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(groups) {
					return
				}
				faultinject.Hit("core.screen.group")
				if ctx.Err() != nil {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							outs[i].panicked = r
						}
					}()
					outs[i].users, outs[i].items = screenOne(g, groups[i], hot, p, a, i+1)
					outs[i].done = true
				}()
			}
		}()
	}
	wg.Wait()
	ctxErr = ctx.Err()
	for i := range outs {
		if outs[i].panicked != nil {
			panic(outs[i].panicked)
		}
		if !outs[i].done {
			continue
		}
		allUsers = append(allUsers, outs[i].users...)
		allItems = append(allItems, outs[i].items...)
	}
	return allUsers, allItems, ctxErr
}
