package main

// layers.go is the benchmark's API allowlist: every call into the repo
// under test lives in this file, and no other file of the benchmark imports
// a repro package. Layers are measured from outside, by timing these calls;
// only the context-taking entry points are used (PruneCtx,
// NearBicliqueExtractCtx, ScreenGroupsCtx, DetectContext, SweepContext,
// FullDetectContext), and none of the oracle switches or tuning fields
// (NoShard, NoFrontier, NoDelta, NoCache, ExpandDegreeCap, CompactFraction,
// CacheBytes) is ever set, so a later change can delete those without
// editing the benchmark.

import (
	"context"
	"io"
	"net/http"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/synth"
)

type (
	Record    = clicktable.Record
	Table     = clicktable.Table
	Staged    = clicktable.Staged
	Graph     = bipartite.Graph
	Edge      = bipartite.Edge
	Component = bipartite.Component
	Group     = detect.Group
	Result    = detect.Result
	Labels    = detect.Labels
	Params    = core.Params
	HotSet    = core.HotSet
	Detector  = stream.Detector
	Buffer    = stream.Buffer
	Store     = serve.Store
	Index     = serve.Index
	Observer  = obs.Observer
	Dataset   = synth.Dataset
	Event     = synth.Event
	MarketCfg = synth.Config
)

// ---- synth ----------------------------------------------------------------

func defaultMarket() MarketCfg { return synth.DefaultConfig() }

func synthGenerate(cfg MarketCfg) (*Dataset, error) { return synth.Generate(cfg) }

func synthEventStream(ds *Dataset, days, attackStart int, seed int64) ([]Event, error) {
	return synth.EventStream(ds, synth.EventStreamConfig{Days: days, AttackStartDay: attackStart, Seed: seed})
}

// ---- clicktable / bipartite ------------------------------------------------

func newTable(n int) *Table { return clicktable.New(n) }

func newStaged() *Staged { return clicktable.NewStaged(nil) }

// stagedDelta is the graph-prep leg of a patched sweep: aggregate the
// unpatched tail and lay it out as the patcher's edge list.
func stagedDelta(s *Staged) (edges []Edge, rows int) {
	d := s.Delta()
	d.Records.Each(func(r Record) bool {
		edges = append(edges, Edge{U: r.UserID, V: r.ItemID, Weight: r.Clicks})
		return true
	})
	return edges, d.Records.Len()
}

func patchGraph(prev *Graph, delta []Edge) *Graph { return bipartite.PatchGraph(prev, delta) }

func connectedComponents(g *Graph) []Component { return bipartite.ConnectedComponents(g) }

func compactComponents(g *Graph, comps []Component) {
	for _, c := range comps {
		bipartite.CompactComponent(g, c)
	}
}

// corePeel replays, with exported graph calls only, the degree peel the
// sharded pass runs before it splits components (users below ⌈α·k₂⌉ live
// items, items below ⌈α·k₁⌉ live users, to a fixpoint). The outside view has
// no entry point that stops after that step, and the component metrics must
// be taken on the residual the shard planner actually sees.
func corePeel(g *Graph, p Params) {
	ceil := func(k int) int {
		v := float64(k) * p.Alpha
		n := int(v)
		if float64(n) < v {
			n++
		}
		return n
	}
	minU, minI := ceil(p.K2), ceil(p.K1)
	for changed := true; changed; {
		changed = false
		g.EachLiveUser(func(u uint32) bool {
			if g.UserDegree(u) < minU {
				g.RemoveUser(u)
				changed = true
			}
			return true
		})
		g.EachLiveItem(func(v uint32) bool {
			if g.ItemDegree(v) < minI {
				g.RemoveItem(v)
				changed = true
			}
			return true
		})
	}
}

func liveNodes(g *Graph) int { return g.LiveUsers() + g.LiveItems() }

// ---- core -------------------------------------------------------------------

func defaultParams() Params { return core.DefaultParams() }

func computeHotSet(g *Graph, p Params) *HotSet { return core.ComputeHotSet(g, p.THot) }

func cloneGraph(g *Graph) *Graph { return core.GraphGenerator(g, detect.Seeds{}) }

func pruneCtx(ctx context.Context, work *Graph, p Params) (removed, rounds int, err error) {
	st, err := core.PruneCtx(ctx, work, p, nil)
	return st.UsersRemoved + st.ItemsRemoved, st.Rounds, err
}

func extractCtx(ctx context.Context, work *Graph, p Params) ([]Group, error) {
	return core.NearBicliqueExtractCtx(ctx, work, p, nil, nil)
}

func screenCtx(ctx context.Context, g *Graph, groups []Group, hot *HotSet, p Params) ([]Group, error) {
	return core.ScreenGroupsCtx(ctx, g, groups, hot, p, nil, nil)
}

func rankResult(g *Graph, res *Result) { core.RankResult(g, res) }

// batchDetect is the paper's own path: the batch detector on a whole graph,
// with no verdict cache.
func batchDetect(ctx context.Context, g *Graph, p Params, o *Observer) (*Result, error) {
	return (&core.Detector{Params: p, Obs: o}).DetectContext(ctx, g)
}

type cacheStats struct{ hits, misses, evictions, bytes int64 }

func detectorCacheStats(d *Detector) cacheStats {
	s := d.CacheStats()
	return cacheStats{s.Hits, s.Misses, s.Evictions, s.Bytes}
}

// ---- stream + durable -------------------------------------------------------

func newMemoryDetector(p Params, o *Observer) (*Detector, error) {
	d, err := stream.New(nil, p)
	if err != nil {
		return nil, err
	}
	d.Obs = o
	return d, nil
}

type recoveryInfo struct {
	coldStart bool
	replayed  int
}

// openDurable is cmd/stream's -wal-dir wiring: WAL without fsync, automatic
// snapshots every snapshotEvery records.
func openDurable(dir string, snapshotEvery int, p Params, o *Observer) (*Detector, recoveryInfo, error) {
	d, info, err := stream.Open(stream.Durability{Dir: dir, Sync: durable.SyncNever, SnapshotEvery: snapshotEvery}, p, o)
	if err != nil {
		return nil, recoveryInfo{}, err
	}
	return d, recoveryInfo{coldStart: info.ColdStart, replayed: info.Replayed}, nil
}

// newBlockingBuffer is cmd/stream's -buffer 4096 -shed-policy block.
func newBlockingBuffer(d *Detector) *Buffer {
	return stream.NewBuffer(d, stream.BufferConfig{Capacity: 4096, Policy: stream.ShedBlock})
}

// defaultCompactFraction is the detector's own patch-or-compact policy; the
// mirror table applies it so that it takes the decision the detector takes,
// without the harness touching the detector's setting.
const defaultCompactFraction = stream.DefaultCompactFraction

func setOnCommit(d *Detector, hook func(*Result, *Graph)) { d.OnCommit = hook }

func graphOf(d *Detector) *Graph { return d.Graph() }

func eventsOf(d *Detector) int { return d.Events() }

func sweepCtx(ctx context.Context, d *Detector) (*Result, error) { return d.SweepContext(ctx) }

func fullDetectCtx(ctx context.Context, d *Detector) (*Result, error) {
	return d.FullDetectContext(ctx)
}

// walAppendProbe times the WAL on its own, in a private directory: batches
// of 512 click-sized entries appended under the given fsync policy.
func walAppendProbe(dir string, fsync bool, batches int) error {
	policy := durable.SyncNever
	if fsync {
		policy = durable.SyncAlways
	}
	w, err := durable.OpenWAL(dir, durable.Options{Sync: policy})
	if err != nil {
		return err
	}
	payload := make([]byte, 13) // one click record: type + user + item + clicks
	entries := make([]durable.Entry, 512)
	seq := uint64(0)
	for b := 0; b < batches; b++ {
		for i := range entries {
			seq++
			entries[i] = durable.Entry{Seq: seq, Payload: payload}
		}
		if err := w.AppendAll(entries); err != nil {
			_ = w.Close()
			return err
		}
	}
	return w.Close()
}

// ---- serve ------------------------------------------------------------------

func newStore(o *Observer) *Store { return serve.NewStore(o) }

// newServer is cmd/stream's -serve-addr handler with its default inflight
// bound; the benchmark calls ServeHTTP directly (no sockets).
func newServer(store *Store, det *Detector, o *Observer) http.Handler {
	opts := serve.Options{Obs: o, MaxInflight: 256}
	if det != nil {
		opts.Degraded = func() bool { return det.DurabilityErr() != nil }
	}
	return serve.NewServer(store, opts)
}

func compileIndex(g *Graph, res *Result, p Params) *Index {
	return serve.Compile(g, res, p.THot, p.TClick)
}

// indexGroups reads the served groups back, in served order.
func indexGroups(ix *Index) []Group {
	out := make([]Group, 0, ix.NumGroups())
	for n := 1; n <= ix.NumGroups(); n++ {
		g, _ := ix.Group(n)
		out = append(out, Group{Users: g.Users, Items: g.Items, Score: g.Score})
	}
	return out
}

// ---- metrics / obs ----------------------------------------------------------

func newLabels() *Labels { return detect.NewLabels() }

func verdictF1(res *Result, truth *Labels) float64 { return metrics.Evaluate(res, truth).F1 }

func newObserver(audited bool) *Observer {
	o := obs.NewObserver("bench")
	if audited {
		o.Events = obs.NewEventSink(io.Discard, 0)
	}
	return o
}
