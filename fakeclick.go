// Package fakeclick detects large-scale fake click information — the
// "Ride Item's Coattails" attack — in e-commerce user-item click logs. It
// is the public facade of a from-scratch reproduction of:
//
//	Li, Li, Huang, Zhang, Wang, Lu, Zhou.
//	"Large-scale Fake Click Detection for E-commerce Recommendation
//	Systems", ICDE 2021.
//
// The attack forges co-clicks between popular ("hot") items and low-quality
// target items so that item-to-item recommenders surface the targets next
// to the hot items. The detector (RICD) models each attack group as a
// dense near-biclique in the user-item click graph, extracts candidates
// with the (α,k₁,k₂)-extension biclique pruning of the paper's Algorithm 3,
// screens them with the user-behavior and item-behavior checks of
// Section V-B, and ranks survivors by risk score.
//
// Quick start:
//
//	g := fakeclick.NewGraph()
//	for _, r := range records {
//	    g.AddClicks(r.UserID, r.ItemID, r.Clicks)
//	}
//	report, err := fakeclick.Detect(g, fakeclick.DefaultConfig())
//	...
//	for _, grp := range report.Groups { ... }
package fakeclick

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/i2i"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Graph is a user-item click graph under construction or ready for
// detection. User and item IDs are independent dense uint32 namespaces.
type Graph struct {
	builder *bipartite.Builder
	built   *bipartite.Graph
}

// NewGraph returns an empty click graph.
func NewGraph() *Graph {
	return &Graph{builder: bipartite.NewBuilder(0, 0)}
}

// AddClicks records that user clicked item `clicks` times. Duplicate pairs
// accumulate. Adding clicks after a Detect call is allowed; the graph is
// rebuilt lazily.
func (g *Graph) AddClicks(user, item uint32, clicks uint32) {
	g.builder.Add(user, item, clicks)
	g.built = nil
}

// LoadCSV ingests a click table in the repository's CSV interchange format
// (header "user_id,item_id,click").
func (g *Graph) LoadCSV(r io.Reader) error {
	tbl, err := clicktable.ReadCSV(r)
	if err != nil {
		return fmt.Errorf("fakeclick: %w", err)
	}
	tbl.Each(func(rec clicktable.Record) bool {
		g.builder.Add(rec.UserID, rec.ItemID, rec.Clicks)
		return true
	})
	g.built = nil
	return nil
}

// NumUsers returns the number of user IDs present (max ID + 1).
func (g *Graph) NumUsers() int { return g.graph().NumUsers() }

// NumItems returns the number of item IDs present (max ID + 1).
func (g *Graph) NumItems() int { return g.graph().NumItems() }

// NumEdges returns the number of distinct (user, item) click pairs.
func (g *Graph) NumEdges() int { return g.graph().LiveEdges() }

// TotalClicks returns the total click volume.
func (g *Graph) TotalClicks() uint64 { return g.graph().LiveClicks() }

func (g *Graph) graph() *bipartite.Graph {
	if g.built == nil {
		g.built = g.builder.Build()
	}
	return g.built
}

// Config are the detection parameters; the field semantics follow the
// paper (see core.Params for the full documentation).
type Config struct {
	// K1 and K2 are the minimum users and items per attack group.
	K1, K2 int
	// Alpha is the near-biclique extension tolerance in (0, 1].
	Alpha float64
	// THot is the hot-item click threshold; 0 derives it from the data
	// via the 80/20 rule of Section IV-A.
	THot uint64
	// TClick is the abnormal-click threshold; 0 derives it via Eq 4.
	TClick uint32
	// SkipScreening disables the suspicious-group screening module
	// (the RICD-UI ablation).
	SkipScreening bool
	// SeedUsers and SeedItems optionally restrict detection to the
	// neighborhoods of known-bad nodes.
	SeedUsers []uint32
	SeedItems []uint32
	// Workers bounds the parallelism of the sharded detection pipeline
	// (component shard pool, square-pruning rounds, screening); 0 uses
	// GOMAXPROCS.
	Workers int
	// Observer, when non-nil, receives the run's stage trace (per-phase
	// spans mirroring the paper's Fig 8b split) and pipeline metrics; the
	// trace is echoed on Report.Trace. Construct one with
	// NewObserver("ricd") and export via its Trace/Metrics fields. A nil
	// Observer disables all instrumentation at no cost.
	Observer *obs.Observer
	// Audit, when non-nil, receives the run's explainable audit trail:
	// one structured event (AuditEvent) per pipeline decision — every
	// pruned vertex with the bound that removed it, every screened-out
	// node with the check it failed, every feedback widening with old and
	// new parameters, and every final group verdict with its risk score.
	// Construct one with NewAuditSink. Works with or without Observer; a
	// nil Audit disables the trail at no cost (events are never built).
	Audit *obs.EventSink
	// Serve, when non-nil, is the online serving hook: every complete
	// detection outcome is compiled into an immutable verdict index
	// (Report.Index) and published to the store atomically after every
	// complete run. Partial (cut-short) outcomes are never published; the
	// previous epoch keeps serving. Mount the store behind
	// NewVerdictServer to answer /v1/user, /v1/item, /v1/pair, /v1/group,
	// /v1/check and /healthz. Construct with NewVerdictStore.
	Serve *VerdictStore
}

// AuditEvent is one entry of the detection audit trail; see the obs
// package's Event documentation for the field semantics. Events serialize
// as JSONL via the sink's writer.
type AuditEvent = obs.Event

// NewAuditSink returns an audit sink for Config.Audit. Events are written
// to w as JSON Lines (one event per line, concurrency-safe, never torn)
// and the last `ring` events are retained in memory (0 disables
// retention). A nil w with ring > 0 gives a memory-only sink.
func NewAuditSink(w io.Writer, ring int) *obs.EventSink { return obs.NewEventSink(w, ring) }

// NewObserver returns an observability hook for Config.Observer: a stage
// trace rooted at rootName plus a metrics registry. Re-exported from the
// internal obs package so applications can construct one.
func NewObserver(rootName string) *obs.Observer { return obs.NewObserver(rootName) }

// VerdictIndex is an immutable, epoch-stamped query index over one
// detection outcome: per-user and per-item verdicts with risk scores and
// group memberships, pair ("is this co-click inside a detected group")
// lookups, and group forensics. Compile one with Report.Index; publish it
// via a VerdictStore. See the serve package for the full documentation.
type VerdictIndex = serve.Index

// VerdictStore is the atomic publication point between a detector and the
// query servers: Publish swaps in a freshly compiled VerdictIndex under
// the next epoch; concurrent readers are lock-free and never observe a
// half-built index (Config.Serve).
type VerdictStore = serve.Store

// NewVerdictStore returns an empty verdict store for Config.Serve. The
// observer (nil allowed) receives serve.* swap metrics and one audit
// event per index publication.
func NewVerdictStore(o *obs.Observer) *VerdictStore { return serve.NewStore(o) }

// NewVerdictServer returns the HTTP query handler over a verdict store:
// GET /v1/user/{id}, /v1/item/{id}, /v1/pair?u=&i=, /v1/group/{id}, POST
// /v1/check (batch), GET /healthz. See serve.Options for the in-flight
// bound, shedding and health wiring.
func NewVerdictServer(store *VerdictStore, opts serve.Options) http.Handler {
	return serve.NewServer(store, opts)
}

// DefaultConfig returns the paper's experiment defaults with data-derived
// thresholds.
func DefaultConfig() Config {
	return Config{K1: 10, K2: 10, Alpha: 1.0}
}

// Group is one detected attack group: suspicious users (crowd-worker
// accounts) and suspicious items (attack targets), with a risk score and
// the forensic statistics an analyst reviews before acting (Density,
// MeanEdgeClicks, OutsideShare).
type Group = detect.Group

// RankedNode is a node with its identification-module risk score.
type RankedNode = detect.Scored

// Report is a detection outcome.
type Report struct {
	// Groups are detected attack groups, most suspicious first.
	Groups []Group
	// Users and Items are the deduplicated suspicious node sets.
	Users []uint32
	Items []uint32
	// RankedUsers and RankedItems order all suspicious nodes by risk
	// score for top-k triage.
	RankedUsers []RankedNode
	RankedItems []RankedNode
	// Elapsed is the end-to-end detection wall time.
	Elapsed time.Duration
	// THot and TClick are the thresholds actually used (data-derived
	// when the config left them zero).
	THot   uint64
	TClick uint32
	// Trace is the stage trace of this run; nil unless Config.Observer
	// was set. Render it with Trace.Tree() or serialize with
	// Trace.JSON().
	Trace *obs.Trace

	// Partial reports that the run was cut short — by context
	// cancellation, deadline expiry, or an isolated stage panic — and the
	// report holds only what the completed stages produced. Stage names
	// the pipeline stage that was interrupted and Err carries the cause
	// (context.Canceled, context.DeadlineExceeded, or a *StageError).
	Partial bool
	Stage   string
	Err     error
}

// StageError is the error produced when a pipeline stage panics: the panic
// is recovered at the stage boundary and surfaced as an error naming the
// stage, never as a process crash. Re-exported for errors.As matching.
type StageError = detect.StageError

// Summary renders a one-paragraph human-readable digest of the report.
func (r *Report) Summary() string {
	var b strings.Builder
	if r.Partial {
		if r.Stage != "" {
			fmt.Fprintf(&b, "PARTIAL result — run interrupted during %q: %v\n", r.Stage, r.Err)
		} else {
			fmt.Fprintf(&b, "PARTIAL result — run interrupted: %v\n", r.Err)
		}
	}
	fmt.Fprintf(&b, "detected %d attack group(s): %d suspicious accounts, %d suspicious items "+
		"(T_hot=%d, T_click=%d, %v)\n",
		len(r.Groups), len(r.Users), len(r.Items), r.THot, r.TClick, r.Elapsed.Round(time.Millisecond))
	for i, grp := range r.Groups {
		fmt.Fprintf(&b, "  group %d: %d accounts × %d items, risk %.1f, density %.2f, "+
			"mean edge clicks %.1f, organic share %.0f%%\n",
			i+1, len(grp.Users), len(grp.Items), grp.Score,
			grp.Density, grp.MeanEdgeClicks, 100*grp.OutsideShare)
	}
	return b.String()
}

// Index compiles the report into an immutable VerdictIndex for the online
// serving layer. The index answers exactly what a direct scan of the
// report answers — a user/item is suspicious iff it appears in a group
// (with its RankedUsers/RankedItems risk score), a pair is in-group iff
// some single group contains both ends — which the query-equivalence
// harness pins byte-for-byte. Nothing is copied or recomputed: the index
// references the report's group and ranking slices, so do not mutate the
// report afterwards.
func (r *Report) Index() *VerdictIndex {
	return serve.Build(serve.Data{
		Groups:      r.Groups,
		RankedUsers: r.RankedUsers,
		RankedItems: r.RankedItems,
		THot:        r.THot,
		TClick:      r.TClick,
		Partial:     r.Partial,
	})
}

// TopUsers returns the k highest-risk users.
func (r *Report) TopUsers(k int) []RankedNode { return topK(r.RankedUsers, k) }

// TopItems returns the k highest-risk items.
func (r *Report) TopItems(k int) []RankedNode { return topK(r.RankedItems, k) }

func topK(nodes []RankedNode, k int) []RankedNode {
	if k > len(nodes) {
		k = len(nodes)
	}
	if k <= 0 {
		return nil
	}
	return nodes[:k]
}

// Detect runs the RICD framework on the graph.
func Detect(g *Graph, cfg Config) (*Report, error) {
	return DetectContext(context.Background(), g, cfg)
}

// DetectContext is Detect under a context: cancellation and deadline
// expiry are honored cooperatively throughout the pipeline (stage
// boundaries, pruning rounds, parallel pruning workers, per screened
// group), so detection stops within a fraction of a pruning round of the
// context's cancellation.
//
// A cut-short run degrades gracefully rather than failing: DetectContext
// returns a non-nil PARTIAL report — whatever the completed stages
// produced — with Report.Partial set, Report.Stage naming the interrupted
// stage, and Report.Err carrying the cause. The returned error is nil on
// cancellation/deadline (the partial report IS the answer to a bounded
// run) and non-nil only for real failures: invalid parameters, or a stage
// panic surfaced as a *StageError (alongside the partial report).
func DetectContext(ctx context.Context, g *Graph, cfg Config) (*Report, error) {
	bg := g.graph()
	params, err := resolveParams(bg, cfg)
	if err != nil {
		return nil, err
	}
	d := &core.Detector{Params: params, Seeds: detect.Seeds{
		Users: cfg.SeedUsers,
		Items: cfg.SeedItems,
	}, Obs: auditObserver(cfg)}
	if cfg.SkipScreening {
		d.Variant = core.VariantUI
	}
	res, err := d.DetectContext(ctx, bg)
	return newReport(bg, res, err, params, cfg)
}

// auditObserver returns the observer the pipeline should run under:
// cfg.Observer, augmented with cfg.Audit as its event sink. Auditing
// without an Observer gets a private observer carrying just the sink, so
// Report.Trace stays nil exactly when Config.Observer was nil.
func auditObserver(cfg Config) *obs.Observer {
	if cfg.Audit == nil {
		return cfg.Observer
	}
	o := cfg.Observer
	if o == nil {
		o = obs.NewObserver("ricd")
	}
	if o.Events == nil {
		o.Events = cfg.Audit
	}
	return o
}

// DetectWithExpectation runs Detect and, if the output is smaller than
// expectedNodes, relaxes parameters with the feedback strategy of Fig 7
// (up to maxRounds detection runs) until the expectation is met or every
// knob reaches its floor.
func DetectWithExpectation(g *Graph, cfg Config, expectedNodes, maxRounds int) (*Report, error) {
	return DetectWithExpectationContext(context.Background(), g, cfg, expectedNodes, maxRounds)
}

// DetectWithExpectationContext is DetectWithExpectation under a context.
// The context budget covers the whole feedback loop; when it expires
// mid-loop, the report holds the best result so far (the last complete
// run when one finished, else the interrupted run's partial output) with
// the same Partial/Stage/Err tagging as DetectContext.
func DetectWithExpectationContext(ctx context.Context, g *Graph, cfg Config,
	expectedNodes, maxRounds int) (*Report, error) {

	bg := g.graph()
	params, err := resolveParams(bg, cfg)
	if err != nil {
		return nil, err
	}
	fr, err := core.DetectWithFeedbackContext(ctx, bg, params, expectedNodes, maxRounds, auditObserver(cfg))
	return newReport(bg, fr.Result, err, fr.Params, cfg)
}

// newReport turns a detection outcome into its Report — the one path behind
// Detect and DetectWithExpectation. params is what the detection ran with.
// A complete outcome arrives identified against the graph it examined and
// is reported as is; a cut-short one is identified here against g, which is
// read for nothing else. The graceful-degradation contract: a nil error or
// a pure cancellation yields a report (partial on cancellation); a stage
// panic yields the partial report AND its *StageError; no result fails
// outright.
// With Config.Serve set, every complete outcome is published as a fresh
// index epoch; partial ones publish nothing and the previous epoch keeps
// serving. A Publish failure is already counted and audited by the store
// and the detection outcome stands regardless, so it is not propagated.
func newReport(g *bipartite.Graph, res *detect.Result, err error, params core.Params, cfg Config) (*Report, error) {
	if res == nil {
		return nil, fmt.Errorf("fakeclick: %w", err)
	}
	sp := cfg.Observer.Root().Start("report")
	core.Identify(g, res)
	rep := &Report{
		Groups:      res.Groups,
		Users:       res.Users(),
		Items:       res.Items(),
		RankedUsers: res.RankedUsers,
		RankedItems: res.RankedItems,
		Elapsed:     res.Elapsed,
		THot:        params.THot,
		TClick:      params.TClick,
	}
	if cfg.Observer != nil {
		rep.Trace = cfg.Observer.Trace
	}
	sp.End()
	if err == nil {
		if cfg.Serve != nil {
			_ = cfg.Serve.Publish(rep.Index())
		}
		return rep, nil
	}
	rep.Partial = true
	rep.Stage = res.StageReached
	rep.Err = err
	var se *StageError
	if errors.As(err, &se) {
		return rep, fmt.Errorf("fakeclick: %w", err)
	}
	return rep, nil
}

func resolveParams(bg *bipartite.Graph, cfg Config) (core.Params, error) {
	params := core.DefaultParams()
	params.K1, params.K2 = cfg.K1, cfg.K2
	params.Alpha = cfg.Alpha
	params.Workers = cfg.Workers
	if cfg.THot != 0 || cfg.TClick != 0 {
		params.THot = cfg.THot
		params.TClick = cfg.TClick
	}
	if cfg.THot == 0 || cfg.TClick == 0 {
		sp := cfg.Observer.Root().Start("derive_thresholds")
		th := core.DeriveThresholds(bg)
		if cfg.THot == 0 {
			params.THot = th.THot
		}
		if cfg.TClick == 0 {
			params.TClick = th.TClick
		}
		sp.SetInt("t_hot", int64(params.THot))
		sp.SetInt("t_click", int64(params.TClick))
		sp.End()
	}
	if err := params.Validate(); err != nil {
		return params, fmt.Errorf("fakeclick: %w", err)
	}
	return params, nil
}

// Explain renders the evidence trail for one detected group (by index into
// rep.Groups): block statistics, each account's hot-vs-target click
// pattern, and each item's supporter-vs-organic profile. This is the
// artifact a platform analyst reviews before punishing accounts.
func Explain(g *Graph, rep *Report, group int) (string, error) {
	if group < 0 || group >= len(rep.Groups) {
		return "", fmt.Errorf("fakeclick: group index %d out of range [0,%d)", group, len(rep.Groups))
	}
	bg := g.graph()
	params := core.DefaultParams()
	params.THot = rep.THot
	params.TClick = rep.TClick
	hot := core.ComputeHotSet(bg, params.THot)
	return core.ExplainGroup(bg, rep.Groups[group], hot, params), nil
}

// Recommend returns the top-k item-to-item recommendations for a user who
// just clicked anchor — the I2I serving path (Eq 1) the attack manipulates.
// Exposed so applications can inspect the attack's effect before and after
// cleaning. A k of zero or less returns nil, as Report.TopUsers does.
func Recommend(g *Graph, anchor uint32, k int) []uint32 {
	return i2i.Recommend(g.graph(), anchor, k)
}

// I2IScore returns the Eq 1 relevance score between anchor and candidate
// (0 if they are never co-clicked).
func I2IScore(g *Graph, anchor, candidate uint32) float64 {
	for _, s := range i2i.Scores(g.graph(), anchor) {
		if s.Item == candidate {
			return s.Score
		}
	}
	return 0
}

// CleanClicks returns a copy of the graph with every edge incident to the
// reported suspicious users removed — the "clean the false click
// information" step of the paper's case study (Section VII).
func CleanClicks(g *Graph, rep *Report) *Graph {
	sus := make(map[uint32]bool, len(rep.Users))
	for _, u := range rep.Users {
		sus[u] = true
	}
	out := NewGraph()
	bg := g.graph()
	bg.EachLiveUser(func(u bipartite.NodeID) bool {
		if sus[u] {
			return true
		}
		bg.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
			out.AddClicks(u, v, w)
			return true
		})
		return true
	})
	return out
}
