package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Known Zarankiewicz numbers z(n,n;2,2): the maximum edges of an n×n
// bipartite graph with no K_{2,2}. Source: classical small values.
var zarankiewicz22 = map[int]int{
	2: 3,
	3: 6,
	4: 9,
	5: 12,
	6: 16,
}

func TestCamouflageBoundDominatesKnownValues(t *testing.T) {
	for n, z := range zarankiewicz22 {
		bound := CamouflageBound(n, n, 2, 2)
		if bound < float64(z) {
			t.Errorf("bound(%d,%d;2,2) = %v below true z = %d", n, n, bound, z)
		}
		// The KST bound is reasonably tight for these sizes.
		if bound > float64(z)*2.2 {
			t.Errorf("bound(%d,%d;2,2) = %v too loose vs z = %d", n, n, bound, z)
		}
	}
}

func TestCamouflageBoundEdgeCases(t *testing.T) {
	if CamouflageBound(0, 5, 2, 2) != 0 {
		t.Error("m=0 should bound 0")
	}
	// s > m: no K_{s,t} can exist; everything is safe.
	if got := CamouflageBound(3, 5, 4, 2); got != 15 {
		t.Errorf("s>m bound = %v, want full 15", got)
	}
	if got := CamouflageBound(3, 5, 2, 6); got != 15 {
		t.Errorf("t>n bound = %v, want full 15", got)
	}
}

// ContainsBiclique reports whether the 0/1 adjacency matrix adj (m rows =
// accounts, n cols = items) contains a complete K_{s,t} sub-biclique. It is
// exponential: the oracle CamouflageBound is checked against on small
// instances.
func ContainsBiclique(adj [][]bool, s, t int) bool {
	m := len(adj)
	if m == 0 || s <= 0 || t <= 0 || s > m {
		return false
	}
	n := len(adj[0])
	if t > n {
		return false
	}
	rows := make([]int, 0, s)
	var rec func(start int) bool
	rec = func(start int) bool {
		if len(rows) == s {
			// Count columns common to all chosen rows.
			common := 0
			for c := 0; c < n; c++ {
				all := true
				for _, r := range rows {
					if !adj[r][c] {
						all = false
						break
					}
				}
				if all {
					common++
					if common >= t {
						return true
					}
				}
			}
			return false
		}
		for r := start; r < m; r++ {
			rows = append(rows, r)
			if rec(r + 1) {
				return true
			}
			rows = rows[:len(rows)-1]
		}
		return false
	}
	return rec(0)
}

func TestContainsBiclique(t *testing.T) {
	adj := [][]bool{
		{true, true, false},
		{true, true, false},
		{false, false, true},
	}
	if !ContainsBiclique(adj, 2, 2) {
		t.Error("2×2 biclique in rows 0-1 not found")
	}
	if ContainsBiclique(adj, 3, 2) {
		t.Error("no 3×2 biclique exists")
	}
	if ContainsBiclique(adj, 2, 3) {
		t.Error("no 2×3 biclique exists")
	}
	if ContainsBiclique(nil, 1, 1) {
		t.Error("empty matrix contains nothing")
	}
}

// Property: CamouflageBound is a genuine upper bound — any random bipartite
// graph with MORE edges than the bound must contain a K_{s,t}.
func TestPropertyBoundIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(4) // 3..6
		n := 3 + rng.Intn(4)
		s, tt := 2, 2
		bound := CamouflageBound(m, n, s, tt)

		// Build a random graph edge by edge; once edges > bound a
		// K_{2,2} must exist.
		adj := make([][]bool, m)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		edges := 0
		order := rng.Perm(m * n)
		for _, p := range order {
			adj[p/n][p%n] = true
			edges++
			if float64(edges) > bound {
				if !ContainsBiclique(adj, s, tt) {
					return false
				}
				// One check above the bound is enough for this instance.
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
