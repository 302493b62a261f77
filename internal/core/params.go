// Package core implements the paper's contribution: the RICD ("Ride Item's
// Coattails" Detection) framework — the naive detector (Algorithm 1), the
// suspicious-group detection module built on (α,k₁,k₂)-extension biclique
// extraction (Algorithms 2 and 3), the suspicious-group screening module
// (user behavior check and item behavior verification), and the
// suspicious-group identification module (risk-score ranking and the
// feedback parameter-adjustment loop).
package core

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/bipartite"
)

// Params are the tunables of the RICD framework. The names follow the paper:
// K1/K2/Alpha define the (α,k₁,k₂)-extension biclique (Definition 3), THot
// and TClick are the behavioral thresholds of Section IV, TRisk drives the
// naive algorithm.
type Params struct {
	// K1 is the minimum number of users in a suspicious group.
	K1 int
	// K2 is the minimum number of items in a suspicious group.
	K2 int
	// Alpha is the extension tolerance α ∈ (0,1]; 1.0 demands full
	// biclique-style connectivity in the pruning conditions.
	Alpha float64

	// THot is the hot-item threshold: items with total clicks ≥ THot are
	// hot (the paper derives 1,320 from the 80/20 rule and sweeps
	// 1,000–4,000 in the experiments).
	THot uint64
	// TClick is the abnormal-click threshold: a user clicking an ordinary
	// item ≥ TClick times is behaving like a crowd worker (Eq 4 derives 12).
	TClick uint32
	// TRisk is the naive algorithm's risk threshold.
	TRisk float64

	// Workers bounds the goroutines used by the parallel stages (shard
	// pool, square-pruning rounds, screening); 0 means GOMAXPROCS.
	Workers int
}

// DefaultParams returns the paper's experiment defaults (Section VI-B):
// k₁ = k₂ = 10, α = 1.0, T_hot = 1,000, T_click = 12.
func DefaultParams() Params {
	return Params{
		K1:     10,
		K2:     10,
		Alpha:  1.0,
		THot:   1000,
		TClick: 12,
		TRisk:  50,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.K1 <= 0 || p.K2 <= 0:
		return fmt.Errorf("core: K1 and K2 must be positive, got %d/%d", p.K1, p.K2)
	case p.Alpha <= 0 || p.Alpha > 1:
		return fmt.Errorf("core: Alpha must be in (0,1], got %v", p.Alpha)
	case p.TClick == 0:
		return fmt.Errorf("core: TClick must be positive")
	case p.Workers < 0:
		return fmt.Errorf("core: Workers must be ≥ 0, got %d", p.Workers)
	}
	return nil
}

func (p Params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ceilMul returns ⌈k × α⌉, the common quantity of Definitions 3–4.
func ceilMul(k int, alpha float64) int {
	v := float64(k) * alpha
	n := int(v)
	if float64(n) < v {
		n++
	}
	return n
}

// Thresholds holds data-derived parameter values.
type Thresholds struct {
	// THot is the click count of the last item inside the top-80%% click
	// mass (the Pareto cut of Section IV-A, first step).
	THot uint64
	// HotItems is the number of items at or above THot.
	HotItems int
	// TClick is Eq 4 evaluated on the dataset:
	// (Avg_clk × 80%) / (Avg_cnt × 20%).
	TClick uint32
}

// DeriveThresholds reproduces the paper's data-driven derivation of T_hot
// (rank items by clicks, cut at 80% of total click mass) and T_click (Eq 4)
// from a click graph.
func DeriveThresholds(g *bipartite.Graph) Thresholds {
	var totals []uint64
	var sum uint64
	g.EachLiveItem(func(v bipartite.NodeID) bool {
		s := g.ItemStrength(v)
		totals = append(totals, s)
		sum += s
		return true
	})
	sort.Slice(totals, func(i, j int) bool { return totals[i] > totals[j] })

	var th Thresholds
	var cum uint64
	for i, s := range totals {
		cum += s
		if float64(cum) >= 0.8*float64(sum) {
			th.THot = s
			th.HotItems = i + 1
			break
		}
	}

	// Avg_clk and Avg_cnt are Table II's user-side means over live users.
	var users int
	var clicks float64
	var degree int64
	g.EachLiveUser(func(u bipartite.NodeID) bool {
		users++
		clicks += float64(g.UserStrength(u))
		degree += int64(g.UserDegree(u))
		return true
	})
	if degree > 0 {
		avgClk, avgCnt := clicks/float64(users), float64(degree)/float64(users)
		tc := (avgClk * 0.8) / (avgCnt * 0.2)
		if tc < 1 {
			tc = 1
		}
		th.TClick = uint32(tc + 0.5)
	} else {
		th.TClick = 1
	}
	return th
}
