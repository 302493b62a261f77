// Package riskcontrol implements the platform rule-based risk-control layer
// the paper's attack analysis presumes: "the risk control system can easily
// detect excessive clicks on an item from a user" (Section IV-A). The rules
// flag per-edge and per-account excess — precisely the tripwires that force
// crowd workers to adopt a click budget C_b, and precisely what a budgeted,
// camouflaged attack slips under. It doubles as a baseline detector
// demonstrating why simple rules cannot catch the "Ride Item's Coattails"
// attack.
package riskcontrol

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bipartite"
	"repro/internal/detect"
)

// Rules are the thresholds of the rule engine. Zero-valued rules are
// disabled.
type Rules struct {
	// MaxPairClicks flags any user with ≥ this many clicks on a single
	// item (the "excessive clicks" rule).
	MaxPairClicks uint32
	// MaxUserClicks flags accounts whose total clicks exceed this bound
	// (bot-like volume).
	MaxUserClicks uint64
	// MaxItemShare flags items where a single account contributed more
	// than this fraction of the item's clicks (0 < share ≤ 1).
	MaxItemShare float64
}

// DefaultRules models a production-ish configuration: no single edge above
// 50 clicks, no account above 600 clicks, no account owning more than 40%
// of an item's traffic.
func DefaultRules() Rules {
	return Rules{MaxPairClicks: 50, MaxUserClicks: 600, MaxItemShare: 0.4}
}

// Validate reports nonsensical configurations.
func (r Rules) Validate() error {
	if r.MaxPairClicks == 0 && r.MaxUserClicks == 0 && r.MaxItemShare == 0 {
		return fmt.Errorf("riskcontrol: all rules disabled")
	}
	if r.MaxItemShare < 0 || r.MaxItemShare > 1 {
		return fmt.Errorf("riskcontrol: MaxItemShare must be in [0,1], got %v", r.MaxItemShare)
	}
	return nil
}

// Detector applies the rules as a detect.Detector, flagging rule-breaking
// users and the items they hammered.
type Detector struct {
	Rules Rules
}

// Name implements detect.Detector.
func (d *Detector) Name() string { return "RiskControl" }

// Detect implements detect.Detector.
func (d *Detector) Detect(g *bipartite.Graph) (*detect.Result, error) {
	if err := d.Rules.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	r := d.Rules

	userFlag := map[bipartite.NodeID]bool{}
	itemFlag := map[bipartite.NodeID]bool{}

	g.EachLiveUser(func(u bipartite.NodeID) bool {
		if r.MaxUserClicks > 0 && g.UserStrength(u) >= r.MaxUserClicks {
			userFlag[u] = true
		}
		g.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
			if r.MaxPairClicks > 0 && w >= r.MaxPairClicks {
				userFlag[u] = true
				itemFlag[v] = true
			}
			if r.MaxItemShare > 0 {
				if total := g.ItemStrength(v); total > 0 &&
					float64(w) >= r.MaxItemShare*float64(total) && total > uint64(w) {
					userFlag[u] = true
					itemFlag[v] = true
				}
			}
			return true
		})
		return true
	})

	res := &detect.Result{Elapsed: time.Since(start)}
	res.DetectElapsed = res.Elapsed
	if len(userFlag) > 0 || len(itemFlag) > 0 {
		grp := detect.Group{}
		for u := range userFlag {
			grp.Users = append(grp.Users, u)
		}
		for v := range itemFlag {
			grp.Items = append(grp.Items, v)
		}
		sortIDs(grp.Users)
		sortIDs(grp.Items)
		res.Groups = []detect.Group{grp}
	}
	return res, nil
}

func sortIDs(ids []bipartite.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
