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
// the global fixpoint, and each component can be pruned, extracted and
// screened on its own goroutine. Each shard is compacted first
// (bipartite.CompactComponent), which shrinks the dense common-neighbor
// counters from whole-graph size to component size — the dominant allocation
// of the square rounds.
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
// Verdict caching (DESIGN.md §15): with p.Cache and opt.hot both set, the
// Fig 5/Fig 6 screening passes and the survivor repartition run inside the
// shard against the compact graph — sound because screening only ever reads
// in-group edges (all present in the compact graph with identical weights)
// and survivors of different shards can share no edge (see
// screenComponentGroups) — and each shard hashes its freshly compacted CSR
// (componentFingerprint) and consults the cache before pruning. A hit
// replays the cached removals/groups through the shard's local→original
// maps; a miss detects live and stores the local outcome. The fingerprint is
// the only invalidation: a component any click changed hashes differently.
// Without opt.hot (prune-only and unscreened extraction) the cache is never
// consulted.

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
	// hot, when non-nil in collect mode with p.Cache set, arms the verdict
	// cache and runs the VariantFull screening passes per shard, so cached
	// components skip pruning, extraction and screening. The HotSet must be
	// the marketplace-wide one computed on the full input graph.
	hot *HotSet
}

// extractOutcome is the collect-mode output of shardedPruneExtract.
type extractOutcome struct {
	raw []detect.Group // extracted candidates, canonical order (sortGroupsCanonical)
	// screened/screenedOK carry the per-shard screening output when it ran
	// (cache active, opt.hot set, no audit sink); when screenedOK is false
	// the caller must screen raw globally as usual.
	screened   []detect.Group
	screenedOK bool
	cacheHits  int
	cacheMiss  int
}

// shardResult is one component's contribution to the merged outcome.
type shardResult struct {
	removedU []bipartite.NodeID // original IDs pruned inside the shard
	removedI []bipartite.NodeID
	groups   []detect.Group // extracted groups in original IDs (collect mode)
	screened []detect.Group // per-shard screened groups (screening mode)
	rounds   int            // local fixpoint rounds
	elapsed  time.Duration
	done     bool  // shard ran (possibly cut short by ctx with err set)
	err      error // ctx error observed mid-shard
	panicked any   // recovered panic, rethrown on the caller's goroutine

	cacheHit   bool // verdict replayed from the cache
	cacheMiss  bool // cache consulted, no entry (stored after live run)
	cacheFault bool // poisoned lookup (fault site core.cache), ran live
	evicted    int  // entries evicted by this shard's store
}

// shardedPruneExtract runs Algorithm 3 sharded by connected component:
// global CorePruning fixpoint → component split → per-shard compaction +
// local Core/Square fixpoint (+ group extraction and optionally screening
// when opt says so) on a bounded worker pool → deterministic merge. g is
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
	cache, hot := p.Cache, opt.hot
	if hot == nil || a != nil {
		// The cache replays verdicts without re-running the per-decision
		// passes, so it cannot re-emit the audit trail's removal and
		// screening events; with a sink attached the trail's completeness
		// wins and the cache is bypassed.
		cache = nil
	}
	// Per-shard screening exists for the cache's sake: the two run together
	// or not at all.
	screening := cache != nil
	if screening {
		cache.BeginEpoch()
	} else {
		hot = nil
	}
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
		outc.screenedOK = screening
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
				outs[i] = runShard(ctx, g, comps[i], p, inner[i], ssp, o, a, i+1,
					opt.collect, cache, hot)
			}
		}()
	}
	wg.Wait()

	// Merge. Panics recovered inside shard workers are rethrown here, on
	// the caller's goroutine, so a stage bug surfaces as a panic through
	// PruneCtx / the DetectContext stage isolation.
	maxRounds := 0
	evicted, faults := 0, 0
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
		if out.cacheHit {
			outc.cacheHits++
		}
		if out.cacheMiss {
			outc.cacheMiss++
		}
		if out.cacheFault {
			faults++
		}
		evicted += out.evicted
		o.Histogram("core.shard").Observe(out.elapsed)
	}
	// Round r of a whole-graph fixpoint removes each component's round-r
	// square victims, and a converged component stays converged, so the
	// whole-graph round count is the max over components of their local
	// fixpoint rounds.
	if maxRounds > st.Rounds {
		st.Rounds = maxRounds
	}
	if cache != nil {
		o.Counter("core.cache.hit").Add(int64(outc.cacheHits))
		o.Counter("core.cache.miss").Add(int64(outc.cacheMiss))
		o.Counter("core.cache.evict").Add(int64(evicted))
		o.Counter("core.cache.fault").Add(int64(faults))
		o.Gauge("core.cache.bytes").Set(cache.Bytes())
		sp.SetInt("cache_hits", int64(outc.cacheHits))
		sp.SetInt("cache_misses", int64(outc.cacheMiss))
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
	}
	sortGroupsCanonical(outc.raw)
	if screening {
		for i := range outs {
			outc.screened = append(outc.screened, outs[i].screened...)
		}
		// The global repartition's output order is the same
		// ConnectedComponents order the extraction merge reproduces
		// (discovery ascending by minimum user, then stable size-descending),
		// so the identical two-key sort canonicalizes the screened merge.
		sortGroupsCanonical(outc.screened)
		outc.screenedOK = true
	}
	return st, outc, nil
}

// sortGroupsCanonical orders groups the way ConnectedComponents orders the
// components of one graph holding all of them (the global repartition, the
// reference's extraction): ascending minimum user ID (Users is sorted, so
// Users[0] is the minimum), then a stable sort by group size descending.
func sortGroupsCanonical(groups []detect.Group) {
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].Users[0] < groups[j].Users[0] })
	sort.SliceStable(groups, func(i, j int) bool {
		return len(groups[i].Users)+len(groups[i].Items) > len(groups[j].Users)+len(groups[j].Items)
	})
}

// runShard prunes one compacted component to its local fixpoint and, in
// collect mode, extracts its candidate groups, all in original IDs. Each
// shard's compact graph carries its own dirty frontier, sized to the
// component rather than the whole graph. A panic is recovered into the
// result for deterministic rethrow by the merger.
//
// cache and hot arrive together or not at all (shardedPruneExtract gates
// them): with both, the shard screens its own groups against the compact
// graph and consults/feeds the verdict cache.
//
// Audit events emitted inside the shard carry the 1-based shard index and
// original-graph IDs (via the auditor's local→original maps); rounds are
// shard-local. A shard.done boundary event closes each completed shard.
func runShard(ctx context.Context, g *bipartite.Graph, comp bipartite.Component,
	p Params, innerWorkers int, ssp *obs.Span, o *obs.Observer, a *auditor,
	shardIdx int, collect bool, cache *VerdictCache, hot *HotSet) (out shardResult) {

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
	if hot != nil {
		localHot = make([]bool, len(itemOf))
		for lv, v := range itemOf {
			localHot[lv] = hot.IsHot(v)
		}
	}
	var fp fingerprint
	if cache != nil {
		fp = componentFingerprint(cg, localHot, p)
		if ferr := faultinject.ErrAt("core.cache"); ferr != nil {
			// Poisoned lookup: fall back to live detection (and restore the
			// entry below); the sweep's verdicts must not depend on cache
			// health.
			out.cacheFault = true
			cache.noteFault()
		} else if e, ok := cache.lookup(fp); ok {
			out.rounds = e.rounds
			out.removedU = mapIDs(e.removedU, userOf)
			out.removedI = mapIDs(e.removedI, itemOf)
			out.groups = translateGroups(e.raw, userOf, itemOf)
			out.screened = translateGroups(e.screened, userOf, itemOf)
			out.done = true
			out.cacheHit = true
			ssp.Set("cache", "hit")
			return
		} else {
			out.cacheMiss = true
		}
	}

	lp := p
	lp.Workers = innerWorkers
	lst, err := newFrontier(cg).prune(ctx, lp, ssp, o, a.forShard(shardIdx, userOf, itemOf))
	out.rounds = lst.Rounds
	var locRemU, locRemI []bipartite.NodeID
	for lu := 0; lu < cg.NumUsers(); lu++ {
		if !cg.UserAlive(bipartite.NodeID(lu)) {
			out.removedU = append(out.removedU, userOf[lu])
			if cache != nil {
				locRemU = append(locRemU, bipartite.NodeID(lu))
			}
		}
	}
	for lv := 0; lv < cg.NumItems(); lv++ {
		if !cg.ItemAlive(bipartite.NodeID(lv)) {
			out.removedI = append(out.removedI, itemOf[lv])
			if cache != nil {
				locRemI = append(locRemI, bipartite.NodeID(lv))
			}
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
	var locals []localGroup
	for _, c := range bipartite.ConnectedComponents(cg) {
		if len(c.Users) >= p.K1 && len(c.Items) >= p.K2 {
			locals = append(locals, localGroup{Users: c.Users, Items: c.Items})
		}
	}
	out.groups = translateGroups(locals, userOf, itemOf)
	var screenedLocals []localGroup
	if hot != nil {
		lh := &HotSet{hot: localHot, tHot: p.THot}
		screenedLocals = screenComponentGroups(cg, locals, lh, p)
		out.screened = translateGroups(screenedLocals, userOf, itemOf)
	}
	if cache != nil {
		out.evicted = cache.store(fp, &cacheEntry{
			rounds:   out.rounds,
			removedU: locRemU,
			removedI: locRemI,
			raw:      locals,
			screened: screenedLocals,
		})
	}
	return
}

// screenComponentGroups runs the Fig 5/Fig 6 screening passes and the
// survivor repartition for one shard's candidate groups, entirely against
// the compact component graph. This matches the global
// ScreenGroupsCtx-over-the-original-graph output exactly:
//
//   - every read the behavior checks perform is filtered to in-group
//     edges, and an in-group edge (both endpoints in the component) exists
//     in the compact graph with an identical weight;
//   - hotness comes in through the component-local hot bits, mapped from
//     the marketplace-wide HotSet;
//   - the global repartition can never merge survivors of different
//     extraction components: pruning removes vertices, not edges, so an
//     original-graph edge between two surviving vertices also survives in
//     the residual, putting its endpoints in the same residual component —
//     i.e. the same raw group. Cross-group edges therefore cannot exist,
//     and repartitioning each raw group on its own is the identity
//     decomposition of the global repartition.
//
// The no-drop fast path is the satellite fix for recomputing
// ConnectedComponents per screening pass: when screening kept every member
// of a raw group, that group is still exactly the connected residual
// component extraction found, so the component split is reused instead of
// re-deriving it from an induced subgraph.
func screenComponentGroups(cg *bipartite.Graph, locals []localGroup, lh *HotSet, p Params) []localGroup {
	var out []localGroup
	for _, grp := range locals {
		// Same fault-injection surface as the global screening loops: a
		// fault armed on "core.screen.group" fires here too (a panic is
		// recovered into the shard result and rethrown at merge, exactly
		// like a pruning-stage panic).
		faultinject.Hit("core.screen.group")
		users, items := screenOne(cg, detect.Group{Users: grp.Users, Items: grp.Items}, lh, p, nil, 0)
		if len(users) == 0 || len(items) == 0 {
			continue
		}
		if len(users) == len(grp.Users) && len(items) == len(grp.Items) {
			out = append(out, localGroup{Users: users, Items: items})
			continue
		}
		sub, err := bipartite.InducedSubgraph(cg, users, items)
		if err != nil {
			// IDs came from cg itself; out-of-range is impossible.
			panic("core: screening produced invalid IDs: " + err.Error())
		}
		for _, c := range bipartite.ConnectedComponents(sub) {
			if len(c.Users) >= p.K1 && len(c.Items) >= p.K2 {
				out = append(out, localGroup{Users: c.Users, Items: c.Items})
			}
		}
	}
	return out
}

// translateGroups maps component-local groups back to original IDs through
// the shard's userOf/itemOf tables, allocating fresh slices so cache
// entries stay immutable across hits.
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
// strictly increasing, so the output stays sorted.
func mapIDs(local, of []bipartite.NodeID) []bipartite.NodeID {
	out := make([]bipartite.NodeID, len(local))
	for i, id := range local {
		out[i] = of[id]
	}
	return out
}
