package core

import (
	"context"
	"sort"
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
// Shard graphs are scratch: extraction maps each shard's groups back to
// original IDs, and nothing a caller receives points into a compact graph,
// so runShard hands each shard graph's pooled arena back as it returns.
// Screening reads the input graph (ScreenGroupsCtx).

// maxShardSpans caps the per-shard child spans recorded under the prune
// span, keeping traces bounded when the residual shatters into thousands of
// tiny components.
const maxShardSpans = 48

// shardResult is one component's contribution to the merged outcome.
type shardResult struct {
	removedU []bipartite.NodeID // original IDs pruned inside the shard
	removedI []bipartite.NodeID
	groups   []detect.Group // extracted groups in original IDs (collect mode)
	rounds   int            // local fixpoint rounds
	elapsed  time.Duration
	done     bool  // shard ran (possibly cut short by ctx with err set)
	err      error // ctx error observed mid-shard
}

// shardedPruneExtract runs Algorithm 3 sharded by connected component:
// global CorePruning fixpoint → component split → per-shard compaction +
// local Core/Square fixpoint (+ group extraction when collect is set;
// PruneCtx prunes only) on a bounded worker pool → deterministic merge. It
// screens nothing and keeps no shard graph. g is
// left at the residual a monolithic fixpoint over the whole graph produces;
// the returned stats and groups are identical to that reference's (see
// fixpoint_test.go).
//
// Cancellation: ctx is checked at entry (fault-injection site
// "core.prune.round"), before each shard ("core.shard"), and between pruning
// rounds inside shards. Completed shards' removals are applied even when
// later shards were skipped — both pruning conditions are monotone, so a
// partially sharded residual is a sound over-approximation of the fixpoint.
// On cancellation no groups are returned.
func shardedPruneExtract(ctx context.Context, g *bipartite.Graph, p Params,
	sp *obs.Span, o *obs.Observer, collect bool) (PruneStats, []detect.Group, error) {

	var st PruneStats
	a := newAuditor(o)
	faultinject.Hit("core.prune.round")
	if err := ctx.Err(); err != nil {
		return st, nil, err
	}
	st.Rounds = 1
	csp := sp.Start("global_core")
	removed := corePruneFixpoint(g, p, a, 1, nil)
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
		return st, nil, nil
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

	outs := make([]shardResult, len(comps))
	parallelFor(ctx, len(comps), workers, 1, func(w *worker) {
		for w.next() {
			i := w.lo
			var ssp *obs.Span
			if i < maxShardSpans {
				ssp = sp.Start("shard")
			}
			outs[i] = runShard(ctx, g, comps[i], p, inner[i], ssp, o, a, i+1, collect)
		}
	})

	maxRounds := 0
	var firstErr error
	for i := range outs {
		out := &outs[i]
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
		return st, nil, err
	}
	if firstErr != nil {
		return st, nil, firstErr
	}

	var groups []detect.Group
	for i := range outs {
		groups = append(groups, outs[i].groups...)
	}
	sortGroupsCanonical(groups)
	return st, groups, nil
}

// sortGroupsCanonical orders groups the way ConnectedComponents orders the
// components of one graph holding all of them (the reference's extraction):
// discovery by ascending minimum user ID, then a stable sort by group size
// descending — i.e. one stable sort by size descending, then minimum user
// ascending. Users is sorted, so Users[0] is the minimum.
func sortGroupsCanonical(groups []detect.Group) {
	sort.SliceStable(groups, func(i, j int) bool {
		a, b := groups[i], groups[j]
		if sa, sb := len(a.Users)+len(a.Items), len(b.Users)+len(b.Items); sa != sb {
			return sa > sb
		}
		return a.Users[0] < b.Users[0]
	})
}

// runShard prunes one compacted component to its local fixpoint and, in
// collect mode, extracts its candidate groups, all in original IDs. Each
// shard's compact graph leases its own arena and frontier (certificates,
// wide masks, ID buffer), sized to the component rather than the whole
// graph, and hands both back before it returns.
//
// Audit events emitted inside the shard carry the 1-based shard index and
// original-graph IDs (via the auditor's local→original maps); rounds are
// shard-local. A shard.done boundary event closes each completed shard.
func runShard(ctx context.Context, g *bipartite.Graph, comp bipartite.Component,
	p Params, innerWorkers int, ssp *obs.Span, o *obs.Observer, a *auditor,
	shardIdx int, collect bool) (out shardResult) {

	start := time.Now()
	defer func() {
		out.elapsed = time.Since(start)
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
	// The release point of the shard graph: the removal lists and groups
	// below are fresh slices in original IDs, so once they are built
	// nothing points into cg's arena.
	defer cg.Release()

	lp := p
	lp.Workers = innerWorkers
	fr := newFrontier(cg)
	lst, err := fr.prune(ctx, lp, ssp, o, a.forShard(shardIdx, userOf, itemOf))
	fr.release()
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
	if !collect {
		return
	}
	for _, c := range bipartite.ConnectedComponents(cg) {
		if len(c.Users) >= p.K1 && len(c.Items) >= p.K2 {
			out.groups = append(out.groups, detect.Group{Users: mapIDs(c.Users, userOf), Items: mapIDs(c.Items, itemOf)})
		}
	}
	return
}

// mapIDs rewrites sorted local IDs to original IDs in place (a component's
// member lists are its own); the mapping is strictly increasing, so the
// list stays sorted.
func mapIDs(local, of []bipartite.NodeID) []bipartite.NodeID {
	for i, id := range local {
		local[i] = of[id]
	}
	return local
}
