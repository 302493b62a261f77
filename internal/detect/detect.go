// Package detect defines the types shared by every "Ride Item's Coattails"
// detection algorithm in this repository: the attack-group representation,
// the detection result, the ground-truth labels produced by the synthetic
// attack injector, and the Detector interface the RICD core and all
// baselines implement.
package detect

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bipartite"
)

// StageError reports that one named stage of a detection pipeline failed.
// Detectors convert a stage panic into a *StageError instead of letting it
// kill the process, so an always-on risk-control service survives a bug in
// any single stage. Either Panic (the recovered value) or Err (a wrapped
// error) is set, never both.
type StageError struct {
	// Stage is the pipeline stage that failed, e.g. "extraction" or
	// "stream.sweep".
	Stage string
	// Panic is the recovered panic value when the stage panicked.
	Panic any
	// Err is the underlying error when the stage failed without panicking.
	Err error
}

// Error implements error.
func (e *StageError) Error() string {
	if e.Panic != nil {
		return fmt.Sprintf("detect: stage %q panicked: %v", e.Stage, e.Panic)
	}
	return fmt.Sprintf("detect: stage %q: %v", e.Stage, e.Err)
}

// Unwrap exposes the underlying error (nil for panics).
func (e *StageError) Unwrap() error { return e.Err }

// RunStage executes fn as the named pipeline stage, converting a panic into
// a *StageError. It is the panic-isolation primitive shared by the RICD
// core and the stream detector.
func RunStage(stage string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &StageError{Stage: stage, Panic: r}
		}
	}()
	return fn()
}

// Group is one suspected "Ride Item's Coattails" attack group: a set of
// suspicious users (crowd workers) and suspicious items (attack targets),
// with the risk score and forensic statistics an analyst reviews before
// acting. Score and the statistics are filled by the identification module
// (core.Identify) and are zero on a group it has not seen.
type Group struct {
	Users []bipartite.NodeID
	Items []bipartite.NodeID
	// Score is the group's suspiciousness (higher is more suspicious): the
	// mean risk score of its users.
	Score float64

	// Density is in-group edges / (users × items); 1.0 is a perfect
	// biclique.
	Density float64
	// MeanEdgeClicks is the average click weight of in-group edges —
	// crowd workers hammer targets, so this runs far above the
	// marketplace per-edge mean.
	MeanEdgeClicks float64
	// OutsideShare is the fraction of the group items' clicks coming
	// from users outside the group (organic traffic).
	OutsideShare float64
}

// Size returns the total number of nodes in the group.
func (g Group) Size() int { return len(g.Users) + len(g.Items) }

// Scored is one suspicious node with its identification-module risk score:
// for a user, the number of suspicious items clicked; for an item, the
// average risk score of its clickers.
type Scored struct {
	ID    bipartite.NodeID
	Score float64
}

// Result is the output of a detection run.
type Result struct {
	// Groups are the detected attack groups, most suspicious first once
	// identified.
	Groups []Group
	// RankedUsers and RankedItems order every suspicious node by risk score
	// (descending, ties by ID) for top-k triage; filled by core.Identify.
	RankedUsers []Scored
	RankedItems []Scored
	// Identified reports that core.Identify has run: group scores,
	// statistics, order and the two rankings are in place and describe the
	// graph the result was identified against — for a result a detector
	// returned, the one its detection examined. (A flag, not the graph: a
	// kept result must not keep a superseded click graph reachable.)
	Identified bool
	// Elapsed is the end-to-end wall time of the detection run.
	Elapsed time.Duration
	// DetectElapsed and ScreenElapsed split Elapsed into the group
	// detection phase and the screening (UI) phase, reproducing the
	// stacking of the paper's Fig 8b. They may be zero for detectors
	// without that structure.
	DetectElapsed time.Duration
	ScreenElapsed time.Duration

	// Partial reports that the run was cut short — by cancellation,
	// deadline expiry, or an isolated stage failure — and Groups holds only
	// what the completed stages produced (the graceful-degradation
	// contract: best-effort results instead of nothing).
	Partial bool
	// StageReached names the pipeline stage at which a partial run stopped;
	// empty for complete runs.
	StageReached string

	// union memoizes the Users/Items dedup-union: reporting, metrics and
	// tracing all call them repeatedly. Groups must be final before the
	// first Users/Items call (every detector builds Groups fully before
	// returning); the returned slices are shared and must not be mutated.
	union struct {
		once  sync.Once
		users []bipartite.NodeID
		items []bipartite.NodeID
	}
}

// Users returns the deduplicated, sorted union of suspicious users across
// all groups (U_sus in the paper's problem definition). The union is
// computed once and cached; callers must not mutate the returned slice or
// append to r.Groups after the first call.
func (r *Result) Users() []bipartite.NodeID {
	r.memoizeUnion()
	return r.union.users
}

// Items returns the deduplicated, sorted union of suspicious items across
// all groups (V_sus in the paper's problem definition). Caching caveats as
// for Users.
func (r *Result) Items() []bipartite.NodeID {
	r.memoizeUnion()
	return r.union.items
}

func (r *Result) memoizeUnion() {
	r.union.once.Do(func() {
		r.union.users = unionNodes(r.Groups, func(g Group) []bipartite.NodeID { return g.Users })
		r.union.items = unionNodes(r.Groups, func(g Group) []bipartite.NodeID { return g.Items })
	})
}

// NumNodes returns the total number of distinct suspicious nodes.
func (r *Result) NumNodes() int { return len(r.Users()) + len(r.Items()) }

func unionNodes(groups []Group, get func(Group) []bipartite.NodeID) []bipartite.NodeID {
	seen := map[bipartite.NodeID]struct{}{}
	for _, g := range groups {
		for _, id := range get(g) {
			seen[id] = struct{}{}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]bipartite.NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Detector is a "Ride Item's Coattails" attack detector. Detect must not
// mutate g; detectors that prune work on a Clone.
type Detector interface {
	// Name identifies the detector in experiment output ("RICD", "LPA", ...).
	Name() string
	// Detect finds suspicious attack groups in the click graph.
	Detect(g *bipartite.Graph) (*Result, error)
}

// Labels is the ground truth for a dataset: which users are crowd workers
// and which items are attack targets. Hot items are victims, not targets,
// and are therefore not labeled.
type Labels struct {
	Users map[bipartite.NodeID]bool
	Items map[bipartite.NodeID]bool
}

// NewLabels returns empty ground truth.
func NewLabels() *Labels {
	return &Labels{
		Users: map[bipartite.NodeID]bool{},
		Items: map[bipartite.NodeID]bool{},
	}
}

// NumAbnormal returns the number of labeled abnormal nodes.
func (l *Labels) NumAbnormal() int { return len(l.Users) + len(l.Items) }

// UserIDs returns the sorted abnormal user IDs.
func (l *Labels) UserIDs() []bipartite.NodeID { return sortedIDs(l.Users) }

// ItemIDs returns the sorted abnormal item IDs.
func (l *Labels) ItemIDs() []bipartite.NodeID { return sortedIDs(l.Items) }

func sortedIDs(m map[bipartite.NodeID]bool) []bipartite.NodeID {
	out := make([]bipartite.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Seeds is a partial set of known abnormal nodes supplied by "the business
// department" — in this reproduction, a sample of the ground truth. RICD's
// group detection module (Algorithm 2) can use seeds to prune the input
// graph.
type Seeds struct {
	Users []bipartite.NodeID
	Items []bipartite.NodeID
}

// Empty reports whether no seeds are present.
func (s Seeds) Empty() bool { return len(s.Users) == 0 && len(s.Items) == 0 }
