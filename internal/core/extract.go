package core

import (
	"context"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// This file implements Algorithm 2, the Suspicious Group Detection module:
// GraphGenerator builds the working bipartite graph — either the whole
// click-table graph or, when known abnormal seeds are available from the
// business department, the union of the seeds' surrounding subgraphs
// (MaxBiGraph in the pseudocode) — and NearBicliqueExtract (Algorithm 3,
// prune.go) extracts the candidate groups.

// GraphGenerator returns the working graph for group detection. With no
// seeds it is a clone of g (TableToBiGraph already happened upstream). With
// seeds, it is the subgraph of g induced by the union of each seed's
// neighborhood expansion: for a seed the attack group around it lies within
// three hops (seed user → its items → their users → those users' items),
// so the expansion collects exactly that ball. Seeds only prune the search
// space — the module works without them (Lines 5–10 of Algorithm 2).
func GraphGenerator(g *bipartite.Graph, seeds detect.Seeds) *bipartite.Graph {
	return GraphGeneratorBounded(g, seeds, 0)
}

// GraphGeneratorBounded is GraphGenerator with an expansion bound: items
// whose live degree exceeds itemDegreeCap are included in the subgraph but
// not traversed THROUGH (their full fan base is not pulled in). The bound is
// safe for attack-group discovery — co-attackers of a seed always share its
// modest-degree target items, never only a hot item (a user sharing only a
// hot item with the seed cannot be in an (α,k₁,k₂)-extension biclique with
// it, which requires ⌈α·k₂⌉ common items). Zero means unbounded. The
// incremental detector uses the bound to keep dirty-region sweeps local.
func GraphGeneratorBounded(g *bipartite.Graph, seeds detect.Seeds, itemDegreeCap int) *bipartite.Graph {
	if seeds.Empty() {
		return g.Clone()
	}

	// The ball is marked in arrays and collected as lists in marking order;
	// InducedSubgraph then costs the ball or, when the ball is nearly the
	// whole graph, what lies outside it.
	keepU := make([]bool, g.NumUsers())
	keepV := make([]bool, g.NumItems())
	var users, items []bipartite.NodeID
	markU := func(u bipartite.NodeID) bool {
		if keepU[u] {
			return false
		}
		keepU[u] = true
		users = append(users, u)
		return true
	}
	markV := func(v bipartite.NodeID) bool {
		if keepV[v] {
			return false
		}
		keepV[v] = true
		items = append(items, v)
		return true
	}
	traverse := func(v bipartite.NodeID) bool {
		return itemDegreeCap <= 0 || g.ItemDegree(v) <= itemDegreeCap
	}

	// expandUser marks u, its items, their users, and those users' items.
	expandUser := func(u bipartite.NodeID) {
		if !g.UserAlive(u) {
			return
		}
		markU(u)
		g.EachUserNeighbor(u, func(v bipartite.NodeID, _ uint32) bool {
			markV(v)
			if !traverse(v) {
				return true
			}
			g.EachItemNeighbor(v, func(u2 bipartite.NodeID, _ uint32) bool {
				if markU(u2) {
					g.EachUserNeighbor(u2, func(v2 bipartite.NodeID, _ uint32) bool {
						markV(v2)
						return true
					})
				}
				return true
			})
			return true
		})
	}
	// expandItem marks v, its users, those users' items, and one more user
	// layer, so that co-attackers who skipped v itself but click its
	// sibling targets (Participation < 1 in the attack model) are included.
	expandItem := func(v bipartite.NodeID) {
		if !g.ItemAlive(v) {
			return
		}
		markV(v)
		if !traverse(v) {
			return
		}
		g.EachItemNeighbor(v, func(u bipartite.NodeID, _ uint32) bool {
			if markU(u) {
				g.EachUserNeighbor(u, func(v2 bipartite.NodeID, _ uint32) bool {
					if !markV(v2) || !traverse(v2) {
						return true
					}
					g.EachItemNeighbor(v2, func(u2 bipartite.NodeID, _ uint32) bool {
						markU(u2)
						return true
					})
					return true
				})
			}
			return true
		})
	}

	for _, u := range seeds.Users {
		expandUser(u)
	}
	for _, v := range seeds.Items {
		expandItem(v)
	}

	sub, err := bipartite.InducedSubgraph(g, users, items)
	if err != nil {
		// Every ID was reached through g's own adjacency.
		panic("core: graph generator produced invalid IDs: " + err.Error())
	}
	return sub
}

// NearBicliqueExtractCtx is ExtractCandidatesCtx's groups, with no hot set.
func NearBicliqueExtractCtx(ctx context.Context, work *bipartite.Graph, p Params,
	sp *obs.Span, o *obs.Observer) ([]detect.Group, error) {

	outc, err := ExtractCandidatesCtx(ctx, work, nil, p, sp, o)
	return outc.raw, err
}

// ExtractCandidatesCtx runs Algorithm 3 on work (mutating it) and returns
// the surviving candidate groups: the connected components of the pruned
// residual that satisfy the size bounds |L| ≥ k₁, |R| ≥ k₂ of Definition 3
// (this is also the explicit group-size control of desired property (4b):
// components too small to be a coordinated attack — e.g. group-buying
// clusters around a single item — are discarded). It is the extraction of
// every RICD detection. With hot, the HotSet of the input graph, every
// candidate keeps the shard graph it was extracted from for the outcome's
// Screen method. Pruning rounds and the component split become child spans
// of sp, and removal/group counts feed o's registry under core.prune.* and
// core.extract.*; nil sp/o observe nothing.
//
// Cancellation is cooperative: pruning checks ctx every round, and the
// component split is guarded by the "core.extract" checkpoint. A cancelled
// call returns no groups (a half-pruned residual would report organic users
// as attackers) together with ctx's error.
func ExtractCandidatesCtx(ctx context.Context, work *bipartite.Graph, hot *HotSet,
	p Params, sp *obs.Span, o *obs.Observer) (extractOutcome, error) {

	// The sharded orchestration prunes and extracts per component in one
	// pass, so the groups come back already merged in canonical order.
	psp := sp.Start("prune")
	st, outc, err := shardedPruneExtract(ctx, work, p, psp, o, shardOptions{collect: true, hot: hot})
	psp.SetInt("rounds", int64(st.Rounds))
	psp.SetInt("users_removed", int64(st.UsersRemoved))
	psp.SetInt("items_removed", int64(st.ItemsRemoved))
	psp.End()
	o.Counter("core.prune.rounds").Add(int64(st.Rounds))
	o.Counter("core.prune.users_removed").Add(int64(st.UsersRemoved))
	o.Counter("core.prune.items_removed").Add(int64(st.ItemsRemoved))
	o.Histogram("core.prune").Observe(psp.Duration())
	if err != nil {
		return extractOutcome{}, err
	}

	faultinject.Hit("core.extract")
	if err := ctx.Err(); err != nil {
		return extractOutcome{}, err
	}
	esp := sp.Start("extract")
	esp.SetInt("groups", int64(len(outc.raw)))
	esp.SetInt("survivor_users", int64(work.LiveUsers()))
	esp.SetInt("survivor_items", int64(work.LiveItems()))
	esp.End()
	o.Counter("core.extract.groups").Add(int64(len(outc.raw)))
	return outc, nil
}
