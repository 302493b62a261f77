package core

import (
	"context"
	"slices"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// This file implements the Suspicious Group Identification module: the
// risk-score ranking strategy and the feedback-based parameter adjustment
// strategy (Fig 7), which together make the framework consumable by business
// experts (desired property 4).

// Identify is the identification module, run once per detection outcome:
// it ranks every suspicious node (RankResult), scores each group with the
// mean risk score of its users, measures each group's forensic statistics
// (ComputeGroupStats) and orders the groups most suspicious first, ties
// keeping their order. Everything is recorded on res, so reports, the audit
// trail, the WAL and the serving index all read one outcome. Identifying an
// identified result again does nothing, whatever graph is passed: a complete
// detection leaves its detector identified against the graph it examined,
// and evidence read from a later graph would count clicks the verdict never
// saw. res.Groups must be final.
func Identify(g *bipartite.Graph, res *detect.Result) {
	if res.Identified {
		return
	}
	res.RankedUsers, res.RankedItems = RankResult(g, res)

	// The suspicious-user union is sorted, so a user's slot in it indexes
	// its risk score.
	ids := res.Users()
	score := make([]float64, len(ids))
	// slot finds id's place in ids; at, the slot after the previous hit, is
	// tried first because members mostly arrive in ascending runs.
	at := 0
	slot := func(id bipartite.NodeID) int {
		if at >= len(ids) || ids[at] != id {
			at, _ = slices.BinarySearch(ids, id)
		}
		at++
		return at - 1
	}
	for _, n := range res.RankedUsers {
		score[slot(n.ID)] = n.Score
	}
	m := getMarks()
	defer putMarks(m)
	for gi := range res.Groups {
		grp := &res.Groups[gi]
		var sum float64
		for _, u := range grp.Users {
			sum += score[slot(u)]
		}
		grp.Score = sum / float64(max(len(grp.Users), 1))
		st := groupStats(g, *grp, m)
		grp.Density, grp.MeanEdgeClicks, grp.OutsideShare = st.Density, st.MeanEdgeClicks, st.OutsideShare
	}
	sort.SliceStable(res.Groups, func(i, j int) bool { return res.Groups[i].Score > res.Groups[j].Score })
	res.Identified = true
}

// testRankHook, when non-nil, is invoked once per RankResult execution. Tests
// use it to count ranking passes per published epoch; it selects nothing.
var testRankHook func()

// RankResult computes risk scores for every suspicious node of a detection
// result, against the original click graph, and returns the two rankings
// (descending by score, ties by ID):
//
//   - a user's risk score is the number of suspicious items it clicked;
//   - an item's risk score is the average risk score of the users that
//     clicked it (non-suspicious clickers contribute zero, so organically
//     popular items are diluted downward).
//
// Every call recomputes both rankings from res's groups; nothing is cached.
func RankResult(g *bipartite.Graph, res *detect.Result) (users, items []detect.Scored) {
	if h := testRankHook; h != nil {
		h()
	}
	ids, sus := res.Users(), res.Items()
	if len(ids) == 0 && len(sus) == 0 {
		return nil, nil
	}
	m := getMarks()
	defer putMarks(m)
	susItem := m.markItems(g, sus)
	defer unmark(susItem, sus)

	// Until it is sorted, users is aligned with ids, which is sorted, so a
	// suspicious user's score is found by binary search.
	users = slices.Grow(users, len(ids))
	for _, u := range ids {
		n := 0
		g.EachUserNeighbor(u, func(v bipartite.NodeID, _ uint32) bool {
			if susItem[v] {
				n++
			}
			return true
		})
		users = append(users, detect.Scored{ID: u, Score: float64(n)})
	}
	susUser := m.markUsers(g, ids)
	defer unmark(susUser, ids)

	items = slices.Grow(items, len(sus))
	for _, v := range sus {
		var sum float64
		n := 0
		g.EachItemNeighbor(v, func(u bipartite.NodeID, _ uint32) bool {
			if susUser[u] { // a non-suspicious clicker adds zero
				i, _ := slices.BinarySearch(ids, u)
				sum += users[i].Score
			}
			n++
			return true
		})
		score := 0.0
		if n > 0 {
			score = sum / float64(n)
		}
		items = append(items, detect.Scored{ID: v, Score: score})
	}
	sortRanked(users)
	sortRanked(items)
	return users, items
}

func sortRanked(nodes []detect.Scored) {
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Score != nodes[j].Score {
			return nodes[i].Score > nodes[j].Score
		}
		return nodes[i].ID < nodes[j].ID
	})
}

// FeedbackResult reports the outcome of the feedback-based parameter
// adjustment loop.
type FeedbackResult struct {
	Result *detect.Result
	// Params are the final, possibly relaxed parameters.
	Params Params
	// Iterations is the number of detection runs performed (≥ 1).
	Iterations int
	// MetExpectation reports whether the final output size reached the
	// end-user's expectation.
	MetExpectation bool
}

// DetectWithFeedbackContext runs the RICD detector, and while the number of
// output nodes falls short of the end-user's expectation, relaxes the
// parameters the way Section V-B describes (decrease T_click first — it is
// the most interpretable knob — then α, then the size bounds k₁/k₂) and
// retries, up to maxIters runs. Relaxation increases recall at the cost of
// precision. Every inner detection run records its own ricd.detect span under
// o's trace root, and the loop's iteration count feeds the registry; a nil o
// observes nothing.
//
// The context budget covers the WHOLE loop, not one run. ctx is checked
// before every iteration (fault-injection site "core.feedback.round") and
// inside each detection run. When the budget expires mid-loop the best result
// so far is returned — the last complete iteration's groups when one
// finished, else the interrupted run's partial output — together with the
// context's error, so a widened re-run that overruns still yields the
// narrower sweep's findings. When a complete iteration's output stands in
// for the interrupted loop its Partial flag stays false (the groups ARE
// complete) but StageReached is stamped "feedback", so reports built from
// the (result, ctx error) pair can name the stage that was cut short. A
// stage panic inside a run aborts the loop with its *detect.StageError and
// the same best-so-far result.
func DetectWithFeedbackContext(ctx context.Context, g *bipartite.Graph, p Params,
	expectation, maxIters int, o *obs.Observer) (FeedbackResult, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	if maxIters < 1 {
		maxIters = 1
	}
	a := newAuditor(o)
	fr := FeedbackResult{Params: p}
	lastGood := p // params of the last COMPLETE run held in fr.Result
	defer func() {
		o.Counter("ricd.feedback.iterations").Add(int64(fr.Iterations))
	}()
	for i := 0; i < maxIters; i++ {
		faultinject.Hit("core.feedback.round")
		if err := ctx.Err(); err != nil {
			if fr.Result == nil {
				fr.Result = &detect.Result{Partial: true, StageReached: "feedback"}
			} else {
				fr.Params = lastGood
				stampFeedbackStage(fr.Result)
			}
			return fr, err
		}
		d := &Detector{Params: fr.Params, Obs: o}
		res, err := d.DetectContext(ctx, g)
		if err != nil {
			// Keep the last COMPLETE result when one exists: a finished
			// narrow sweep beats a half-finished wide one.
			if fr.Result == nil {
				fr.Result = res
			} else {
				fr.Params = lastGood
				stampFeedbackStage(fr.Result)
			}
			fr.Iterations = i + 1
			return fr, err
		}
		fr.Result = res
		fr.Iterations = i + 1
		lastGood = fr.Params
		if res.NumNodes() >= expectation {
			fr.MetExpectation = true
			return fr, nil
		}
		relaxed, ok := relax(fr.Params)
		if !ok {
			return fr, nil // nothing left to relax
		}
		a.widenEvents(i+1, fr.Params, relaxed)
		fr.Params = relaxed
	}
	return fr, nil
}

// stampFeedbackStage tags a COMPLETE iteration's result that is standing
// in for an interrupted feedback loop. Its groups are intact — Partial
// stays false — but the loop around it was cut short, so reports built
// from the (result, ctx error) pair need a non-empty stage name for the
// interruption: "feedback", the loop itself.
func stampFeedbackStage(res *detect.Result) {
	if res.StageReached == "" {
		res.StageReached = "feedback"
	}
}

// relax loosens parameters one notch; it returns ok=false once every knob
// is at its floor.
func relax(p Params) (Params, bool) {
	switch {
	case p.TClick > 4:
		p.TClick -= 2
	case p.Alpha > 0.7:
		p.Alpha -= 0.1
		if p.Alpha < 0.7 {
			p.Alpha = 0.7
		}
	case p.K1 > 4 || p.K2 > 4:
		if p.K1 > 4 {
			p.K1--
		}
		if p.K2 > 4 {
			p.K2--
		}
	default:
		return p, false
	}
	return p, true
}
