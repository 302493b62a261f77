package synth

import "repro/internal/bipartite"

// LadderGraph builds the rounds-heavy pruning stress workload used by the
// fixpoint benchmarks and tests: a "ladder" of `layers` user layers U_0..U_{D-1}
// (m users each) and item layers V_0..V_{D-1} (k items each), where every user
// of U_j clicks every item of V_j and V_{j+1}.
//
// Pruned with k₁ = 2m+1, k₂ = k, α = 0.5 (so ⌈α·k₂⌉ = k/2+… common items
// certify a user pair and ⌈α·k₁⌉ = m+1 common users certify an item pair),
// the structure peels one layer per fixpoint round from each end:
//
//   - interior users see 3m qualifying co-users (own layer + both adjacent
//     layers) ≥ 2m+1 and survive, but the end layers see only 2m < 2m+1 and
//     fail;
//   - once an end user layer dies, the adjacent item layer's live user set
//     drops to m < m+1 common users and dies the same round, exposing the
//     next user layer as the new end.
//
// The fixpoint therefore needs ≈ layers/2 rounds of *small* removals — the
// workload where walking every live vertex every round is most wasteful and
// survivor certificates save the most. The residual is empty. LadderParams returns the matching
// thresholds.
func LadderGraph(layers, m, k int) *bipartite.Graph {
	b := bipartite.NewBuilder(layers*m, layers*k)
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
	return b.Build()
}

// LadderParams returns the (k1, k2, alpha) thresholds that make LadderGraph
// peel one layer per round from each end (see LadderGraph).
func LadderParams(m, k int) (k1, k2 int, alpha float64) {
	return 2*m + 1, k, 0.5
}
