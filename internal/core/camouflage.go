package core

import "math"

// This file quantifies desired property (3) — camouflage restriction. Every
// (α,k₁,k₂)-extension biclique contains a biclique (Definition 3), so an
// attacker who wants to stay invisible to RICD must avoid creating any
// K_{k₁,k₂} biclique among its fake edges. The maximum number of edges an
// m×n bipartite graph can carry without containing K_{s,t} is the
// Zarankiewicz number z(m,n;s,t); Kővári–Sós–Turán (and Füredi's refinement)
// give the classical upper bound implemented here.

// CamouflageBound returns the Kővári–Sós–Turán upper bound on the number of
// fake click edges an attacker controlling m accounts can add across n items
// without forming a K_{s,t} biclique (s on the account side, t on the item
// side):
//
//	z(m, n; s, t) ≤ (s−1)^(1/t) · (n−t+1) · m^(1−1/t) + (t−1) · m
//
// For RICD with parameters k₁, k₂ call CamouflageBound(m, n, k₁, k₂): any
// attacker adding more edges than this bound is guaranteed to create an
// extractable biclique core and be caught.
func CamouflageBound(m, n, s, t int) float64 {
	if m <= 0 || n <= 0 || s <= 0 || t <= 0 {
		return 0
	}
	if s > m || t > n {
		// No K_{s,t} fits at all: every edge is safe.
		return float64(m) * float64(n)
	}
	fm, fn := float64(m), float64(n)
	fs, ft := float64(s), float64(t)
	return math.Pow(fs-1, 1/ft)*(fn-ft+1)*math.Pow(fm, 1-1/ft) + (ft-1)*fm
}
