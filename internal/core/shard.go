package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// This file implements the component-sharded parallel form of Algorithm 3.
//
// The decomposition is sound because pruning removes VERTICES, never edges:
// once the cheap CorePruning fixpoint has converged globally, the surviving
// graph splits into connected components that share no edge, so no removal
// inside one component can ever change a degree or common-neighbor count in
// another. The union of per-component (α,k₁,k₂) fixpoints therefore equals
// the global fixpoint, and each component can be pruned and extracted on its
// own goroutine. Each shard is compacted first (bipartite.CompactComponent),
// which shrinks the dense common-neighbor counters from whole-graph size to
// component size — the dominant allocation of the square rounds.
//
// Determinism/merge contract: shard outputs are merged in the order a
// monolithic pass over the whole residual produces (the reference in
// reference_test.go): ConnectedComponents of the residual — discovery in
// ascending minimum-user-ID order, then a stable sort by component size
// descending. Shard groups are exactly those residual components, so
// replaying the same two-key stable sort over the union of shard outputs
// yields that sequence independent of goroutine scheduling. Compaction
// preserves verdicts too: local IDs are assigned in ascending original-ID
// order, so every ID-ordered traversal (and the degree-then-ID candidate
// order of sortByDegree) coincides with the original graph's.
//
// Screening on shard graphs: with opt.hot set, every candidate leaves the
// pass with the compact graph it was extracted from and its local hot bits
// (screenGraph), and the screening stage judges it there
// (extractOutcome.Screen, which gives the soundness argument).

// maxShardSpans caps the per-shard child spans recorded under the prune
// span, keeping traces bounded when the residual shatters into thousands of
// tiny components.
const maxShardSpans = 48

// shardOptions selects what shardedPruneExtract produces beyond the pruned
// residual.
type shardOptions struct {
	// collect extracts candidate groups (the extraction callers); false
	// prunes only (PruneCtx).
	collect bool
	// hot, when non-nil in collect mode, is the marketplace-wide HotSet
	// (computed on the full input graph) the caller screens against with
	// full screening: the candidates then carry their shard graphs.
	hot *HotSet
}

// screenGraph is a graph candidates are screened on — a shard's compact
// component graph, or the original graph itself (ScreenGroupsCtx) — with
// what screening gathers on it.
type screenGraph struct {
	g              *bipartite.Graph
	hot            *HotSet            // hot bits in g's ID space
	userOf, itemOf []bipartite.NodeID // local → original IDs; nil when g is the original graph
	users, items   []bipartite.NodeID // survivors left to re-partition
	screened       []localGroup
}

// localGroup is one extracted or screened group in the IDs of the graph it
// is screened on.
type localGroup struct {
	Users, Items []bipartite.NodeID
}

// candidate is one extracted group and the graph it is screened on.
type candidate struct {
	detect.Group            // original IDs
	local        localGroup // the same group in on's IDs
	on           *screenGraph
}

// extractOutcome is an extraction's output, screened by its Screen method.
type extractOutcome struct {
	raw []detect.Group // every extracted candidate, canonical order (sortGroupsCanonical)
	// With opt.hot: the candidates to screen, in canonical order, and the
	// graphs they are screened on.
	cands  []candidate
	graphs []*screenGraph
}

// shardResult is one component's contribution to the merged outcome.
type shardResult struct {
	removedU []bipartite.NodeID // original IDs pruned inside the shard
	removedI []bipartite.NodeID
	groups   []detect.Group // extracted groups in original IDs (collect mode)
	on       *screenGraph   // the shard graph cands are screened on (opt.hot set)
	cands    []candidate
	rounds   int // local fixpoint rounds
	elapsed  time.Duration
	done     bool  // shard ran (possibly cut short by ctx with err set)
	err      error // ctx error observed mid-shard
	panicked any   // recovered panic, rethrown on the caller's goroutine
}

// shardedPruneExtract runs Algorithm 3 sharded by connected component:
// global CorePruning fixpoint → component split → per-shard compaction +
// local Core/Square fixpoint (+ group extraction when opt says so) on a
// bounded worker pool → deterministic merge. It screens nothing. g is
// left at the residual a monolithic fixpoint over the whole graph produces;
// the returned stats and groups are identical to that reference's (see
// shardequiv_test.go).
//
// Cancellation: ctx is checked at entry (fault-injection site
// "core.prune.round"), before each shard ("core.shard"), and between pruning
// rounds inside shards. Completed shards' removals are applied even when
// later shards were skipped — both pruning conditions are monotone, so a
// partially sharded residual is a sound over-approximation of the fixpoint.
// On cancellation no groups are returned.
func shardedPruneExtract(ctx context.Context, g *bipartite.Graph, p Params,
	sp *obs.Span, o *obs.Observer, opt shardOptions) (PruneStats, extractOutcome, error) {

	var st PruneStats
	var outc extractOutcome
	a := newAuditor(o)
	faultinject.Hit("core.prune.round")
	if err := ctx.Err(); err != nil {
		return st, outc, err
	}
	st.Rounds = 1
	csp := sp.Start("global_core")
	removed := corePruneFixpoint(g, p, a, 1)
	st.UsersRemoved = removed.UsersRemoved
	st.ItemsRemoved = removed.ItemsRemoved
	csp.SetInt("users_removed", int64(removed.UsersRemoved))
	csp.SetInt("items_removed", int64(removed.ItemsRemoved))
	csp.End()

	plan := sp.Start("shard_plan")
	comps := bipartite.ConnectedComponents(g)
	plan.SetInt("shards", int64(len(comps)))
	plan.End()
	o.Counter("core.shards").Add(int64(len(comps)))
	if len(comps) == 0 {
		return st, outc, nil
	}

	// Worker budget: one pool worker per shard up to p.workers(); when there
	// are fewer shards than workers, the spare workers parallelize the
	// square rounds INSIDE the shards instead, extra share to the biggest
	// ones (comps is sorted by size descending).
	workers := p.workers()
	inner := make([]int, len(comps))
	base, rem := 1, 0
	if len(comps) < workers {
		base, rem = workers/len(comps), workers%len(comps)
	}
	for i := range inner {
		inner[i] = base
		if i < rem {
			inner[i]++
		}
	}
	pool := workers
	if pool > len(comps) {
		pool = len(comps)
	}

	outs := make([]shardResult, len(comps))
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(comps) || ctx.Err() != nil {
					return
				}
				var ssp *obs.Span
				if i < maxShardSpans {
					ssp = sp.Start("shard")
				}
				outs[i] = runShard(ctx, g, comps[i], p, inner[i], ssp, o, a, i+1, opt)
			}
		}()
	}
	wg.Wait()

	// Merge. Panics recovered inside shard workers are rethrown here, on
	// the caller's goroutine, so a stage bug surfaces as a panic through
	// PruneCtx / the DetectContext stage isolation.
	maxRounds := 0
	var firstErr error
	for i := range outs {
		out := &outs[i]
		if out.panicked != nil {
			panic(out.panicked)
		}
		if !out.done {
			continue
		}
		for _, u := range out.removedU {
			g.RemoveUser(u)
		}
		for _, v := range out.removedI {
			g.RemoveItem(v)
		}
		st.UsersRemoved += len(out.removedU)
		st.ItemsRemoved += len(out.removedI)
		if out.rounds > maxRounds {
			maxRounds = out.rounds
		}
		if out.err != nil && firstErr == nil {
			firstErr = out.err
		}
		o.Histogram("core.shard").Observe(out.elapsed)
	}
	// Round r of a whole-graph fixpoint removes each component's round-r
	// square victims, and a converged component stays converged, so the
	// whole-graph round count is the max over components of their local
	// fixpoint rounds.
	if maxRounds > st.Rounds {
		st.Rounds = maxRounds
	}
	if err := ctx.Err(); err != nil {
		return st, extractOutcome{}, err
	}
	if firstErr != nil {
		return st, extractOutcome{}, firstErr
	}

	if !opt.collect {
		return st, outc, nil
	}
	for i := range outs {
		outc.raw = append(outc.raw, outs[i].groups...)
		outc.cands = append(outc.cands, outs[i].cands...)
		if outs[i].on != nil {
			outc.graphs = append(outc.graphs, outs[i].on)
		}
	}
	sortGroupsCanonical(outc.raw)
	sort.SliceStable(outc.cands, func(i, j int) bool {
		return canonicalBefore(outc.cands[i].Group, outc.cands[j].Group)
	})
	return st, outc, nil
}

// sortGroupsCanonical orders groups the way ConnectedComponents orders the
// components of one graph holding all of them (the global repartition, the
// reference's extraction): discovery by ascending minimum user ID, then a
// stable sort by group size descending — i.e. one stable sort by size
// descending, then minimum user ascending.
func sortGroupsCanonical(groups []detect.Group) {
	sort.SliceStable(groups, func(i, j int) bool { return canonicalBefore(groups[i], groups[j]) })
}

// canonicalBefore is sortGroupsCanonical's order. Users is sorted, so
// Users[0] is the minimum.
func canonicalBefore(a, b detect.Group) bool {
	if sa, sb := len(a.Users)+len(a.Items), len(b.Users)+len(b.Items); sa != sb {
		return sa > sb
	}
	return a.Users[0] < b.Users[0]
}

// runShard prunes one compacted component to its local fixpoint and, in
// collect mode, extracts its candidate groups, all in original IDs. Each
// shard's compact graph carries its own dirty frontier, sized to the
// component rather than the whole graph. A panic is recovered into the
// result for deterministic rethrow by the merger.
//
// With hot set, the shard's candidates keep the compact graph and its local
// hot bits for the screening stage.
//
// Audit events emitted inside the shard carry the 1-based shard index and
// original-graph IDs (via the auditor's local→original maps); rounds are
// shard-local. A shard.done boundary event closes each completed shard.
func runShard(ctx context.Context, g *bipartite.Graph, comp bipartite.Component,
	p Params, innerWorkers int, ssp *obs.Span, o *obs.Observer, a *auditor,
	shardIdx int, opt shardOptions) (out shardResult) {

	start := time.Now()
	defer func() {
		out.elapsed = time.Since(start)
		if r := recover(); r != nil {
			out.panicked = r
			out.done = false
		}
		ssp.SetInt("users", int64(len(comp.Users)))
		ssp.SetInt("items", int64(len(comp.Items)))
		ssp.SetInt("rounds", int64(out.rounds))
		ssp.SetInt("removed", int64(len(out.removedU)+len(out.removedI)))
		ssp.End()
	}()

	faultinject.Hit("core.shard")
	if err := ctx.Err(); err != nil {
		out.err = err
		return
	}

	cg, userOf, itemOf := bipartite.CompactComponent(g, comp)
	var localHot []bool
	if opt.hot != nil {
		localHot = make([]bool, len(itemOf))
		for lv, v := range itemOf {
			localHot[lv] = opt.hot.IsHot(v)
		}
	}

	lp := p
	lp.Workers = innerWorkers
	lst, err := newFrontier(cg).prune(ctx, lp, ssp, o, a.forShard(shardIdx, userOf, itemOf))
	out.rounds = lst.Rounds
	for lu := 0; lu < cg.NumUsers(); lu++ {
		if !cg.UserAlive(bipartite.NodeID(lu)) {
			out.removedU = append(out.removedU, userOf[lu])
		}
	}
	for lv := 0; lv < cg.NumItems(); lv++ {
		if !cg.ItemAlive(bipartite.NodeID(lv)) {
			out.removedI = append(out.removedI, itemOf[lv])
		}
	}
	out.done = true
	if err != nil {
		out.err = err
		return
	}
	a.shardDone(shardIdx, len(comp.Users), len(comp.Items), out.rounds,
		len(out.removedU)+len(out.removedI))
	if !opt.collect {
		return
	}
	var locals []localGroup
	for _, c := range bipartite.ConnectedComponents(cg) {
		if len(c.Users) >= p.K1 && len(c.Items) >= p.K2 {
			locals = append(locals, localGroup{Users: c.Users, Items: c.Items})
		}
	}
	out.groups = translateGroups(locals, userOf, itemOf)
	if opt.hot == nil {
		return
	}
	out.on = &screenGraph{g: cg, hot: &HotSet{hot: localHot, tHot: p.THot}, userOf: userOf, itemOf: itemOf}
	for j, l := range locals {
		out.cands = append(out.cands, candidate{Group: out.groups[j], local: l, on: out.on})
	}
	return
}

// translateGroups maps component-local groups back to original IDs through
// the shard's userOf/itemOf tables.
func translateGroups(locals []localGroup, userOf, itemOf []bipartite.NodeID) []detect.Group {
	if len(locals) == 0 {
		return nil
	}
	out := make([]detect.Group, len(locals))
	for i, l := range locals {
		out[i] = detect.Group{Users: mapIDs(l.Users, userOf), Items: mapIDs(l.Items, itemOf)}
	}
	return out
}

// mapIDs translates sorted local IDs back to original IDs; the mapping is
// strictly increasing, so the output stays sorted. A nil mapping is the
// identity (a graph already in original IDs) and copies nothing.
func mapIDs(local, of []bipartite.NodeID) []bipartite.NodeID {
	if of == nil {
		return local
	}
	out := make([]bipartite.NodeID, len(local))
	for i, id := range local {
		out[i] = of[id]
	}
	return out
}
