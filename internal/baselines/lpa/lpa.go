// Package lpa implements the Label Propagation Algorithm baseline of the
// paper's evaluation: Raghavan-style label propagation over the user-item
// bipartite graph with the paper's defaults — max_round = 20 and a unique
// initial label per node. Communities large enough on both sides become
// candidate attack groups.
package lpa

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bipartite"
	"repro/internal/detect"
)

// Detector runs LPA community detection as a detect.Detector.
type Detector struct {
	// MaxRound bounds the propagation rounds (paper default 20); one round
	// updates both sides once.
	MaxRound int
	// MinUsers and MinItems filter communities to plausible attack groups
	// (set to RICD's k₁/k₂ in the experiments).
	MinUsers int
	MinItems int
}

// DefaultDetector returns the paper's configuration with the given group
// size bounds.
func DefaultDetector(minUsers, minItems int) *Detector {
	return &Detector{MaxRound: 20, MinUsers: minUsers, MinItems: minItems}
}

// Name implements detect.Detector.
func (d *Detector) Name() string { return "LPA" }

// Detect implements detect.Detector.
func (d *Detector) Detect(g *bipartite.Graph) (*detect.Result, error) {
	if d.MaxRound < 1 {
		return nil, fmt.Errorf("lpa: MaxRound must be ≥ 1, got %d", d.MaxRound)
	}
	if d.MinUsers < 1 || d.MinItems < 1 {
		return nil, fmt.Errorf("lpa: MinUsers/MinItems must be ≥ 1, got %d/%d", d.MinUsers, d.MinItems)
	}
	start := time.Now()
	userLabel, itemLabel := propagate(g, d.MaxRound)

	// Group live vertices by final label.
	type comm struct {
		users []bipartite.NodeID
		items []bipartite.NodeID
	}
	comms := map[uint32]*comm{}
	get := func(l uint32) *comm {
		c := comms[l]
		if c == nil {
			c = &comm{}
			comms[l] = c
		}
		return c
	}
	g.EachLiveUser(func(u bipartite.NodeID) bool {
		c := get(userLabel[u])
		c.users = append(c.users, u)
		return true
	})
	g.EachLiveItem(func(v bipartite.NodeID) bool {
		c := get(itemLabel[v])
		c.items = append(c.items, v)
		return true
	})

	res := &detect.Result{}
	keys := make([]uint32, 0, len(comms))
	for l := range comms {
		keys = append(keys, l)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, l := range keys {
		c := comms[l]
		if len(c.users) >= d.MinUsers && len(c.items) >= d.MinItems {
			res.Groups = append(res.Groups, detect.Group{Users: c.users, Items: c.items})
		}
	}
	res.Elapsed = time.Since(start)
	res.DetectElapsed = res.Elapsed
	return res, nil
}

// propagate runs semi-synchronous label propagation and returns every
// vertex's final label. Labels live in one ID space — user u starts as u,
// item v as NumUsers+v — so every vertex starts with a unique label. Users
// update on odd steps and items on even steps, each live vertex adopting the
// neighbor label carried by the greatest total incident click weight (ties
// toward the smaller label); the side alternation avoids the label
// oscillation that plain synchronous LPA exhibits on bipartite graphs, and
// makes every step synchronous for free: a step writes one side's labels and
// reads only the other's. Propagation stops after two consecutive steps
// without a change (one quiet pass over each side) or 2·maxRound+1 steps.
func propagate(g *bipartite.Graph, maxRound int) (userLabel, itemLabel []uint32) {
	userLabel = make([]uint32, g.NumUsers())
	itemLabel = make([]uint32, g.NumItems())
	for u := range userLabel {
		userLabel[u] = uint32(u)
	}
	for v := range itemLabel {
		itemLabel[v] = uint32(g.NumUsers() + v)
	}

	tally := map[uint32]uint64{}
	// adopt moves *own to the label of greatest tallied weight, the smaller
	// on a tie, and empties tally; a vertex with no live neighbor keeps its
	// label. It reports whether the label changed.
	adopt := func(own *uint32) bool {
		best, bestW := *own, uint64(0)
		for label, w := range tally {
			if w > bestW || (w == bestW && label < best) {
				best, bestW = label, w
			}
		}
		clear(tally)
		changed := best != *own
		*own = best
		return changed
	}

	quiet := 0
	for step := 1; step <= 2*maxRound+1 && quiet < 2; step++ {
		changed := false
		if step%2 == 1 {
			g.EachLiveUser(func(u bipartite.NodeID) bool {
				g.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
					tally[itemLabel[v]] += uint64(w)
					return true
				})
				changed = adopt(&userLabel[u]) || changed
				return true
			})
		} else {
			g.EachLiveItem(func(v bipartite.NodeID) bool {
				g.EachItemNeighbor(v, func(u bipartite.NodeID, w uint32) bool {
					tally[userLabel[u]] += uint64(w)
					return true
				})
				changed = adopt(&itemLabel[v]) || changed
				return true
			})
		}
		if changed {
			quiet = 0
		} else {
			quiet++
		}
	}
	return userLabel, itemLabel
}
