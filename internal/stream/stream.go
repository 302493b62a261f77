// Package stream implements the paper's Section VIII future-work
// direction: incremental "Ride Item's Coattails" detection over a dynamic
// click stream, so that attacks are caught while a marketing campaign is
// still running instead of in a nightly batch.
//
// The detector keeps the click graph under a stream of click events and
// exploits two structural facts to avoid full recomputation:
//
//  1. Click streams only ADD edges and weight. Both pruning conditions of
//     Algorithm 3 are monotone in the edge set, so a node inside a valid
//     candidate group cannot fall out of one because of new clicks —
//     previously detected groups only need cheap re-screening (hotness may
//     shift as items gain clicks), never re-extraction.
//  2. A new attack group must involve recently touched nodes. Scoped
//     detection seeds Algorithm 2's graph generator with the users touched
//     since the last detection, pruning the search to their neighborhoods.
//
// Every committed sweep ends with the identification module (core.Identify)
// on the graph it examined, like a batch detection: the returned result, the
// WAL sweep record, the carried groups, the audit trail's group.verdict
// events and the OnCommit hook all see the same scored, ranked, most-
// suspicious-first outcome.
package stream

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Detector is an incremental RICD detector. Ingestion and detection are
// safe to run concurrently: AddClick/AddBatch may race with an in-flight
// sweep, which examines a consistent snapshot of the graph taken at entry;
// clicks streamed during a sweep land in the next one.
type Detector struct {
	params core.Params

	// CompactFraction is the delta-maintenance compaction policy: when the
	// raw rows accumulated since the last compaction exceed this fraction
	// of the aggregated base table, the next graph build folds them in with
	// a full rebuild instead of patching (amortizing the pending tail away).
	// Zero means DefaultCompactFraction. Set before first use; do not change
	// afterwards.
	CompactFraction float64

	// Obs, when non-nil, records every sweep as a stream.sweep span
	// (sweep type, dirty-user scope, seed count, sweep-local graph size)
	// and feeds stream.* metrics, including separate full/incremental
	// sweep latency histograms for incremental-speedup ratios. Nil costs
	// nothing.
	Obs *obs.Observer

	// OnCommit, when non-nil, is invoked after every COMMITTED sweep with
	// the sweep's identified result and the immutable graph it examined and
	// was identified against — the sweep-completion hook the serving layer
	// uses to index and publish the outcome (serve.Compile + Store.Publish,
	// which rank nothing again). It runs on
	// the sweeping goroutine, outside the detector's lock, so ingestion
	// proceeds while it executes; aborted (partial) sweeps never fire it,
	// so consumers only ever see fully committed verdicts. Set it before
	// the first sweep and do not mutate it afterwards.
	OnCommit func(res *detect.Result, g *bipartite.Graph)

	// mu guards all mutable state below. A sweep holds it only while taking
	// its snapshot and while committing a completed sweep, never during the
	// detection work itself, so ingestion stalls for microseconds, not for
	// a whole sweep.
	mu    sync.Mutex
	table *clicktable.Staged
	// graph is the last built click graph: nil before the first build,
	// stale while table.DeltaLen() > 0. Builds after the first patch the
	// delta onto the previous graph (bipartite.PatchGraph) unless the
	// compaction policy calls for a full rebuild; either way the result is
	// byte-identical to rebuilding from the full history.
	graph *bipartite.Graph
	// dirty maps each user touched since the last committed sweep to the
	// record-clock value (seq) of their newest click. The seq lets sweep
	// commits — live or WAL-replayed — retire exactly the users whose
	// newest activity the sweep's snapshot actually saw.
	dirty map[bipartite.NodeID]uint64

	// seq is the detector's record clock: one tick per click event and per
	// committed sweep. Durable detectors stamp WAL records with it, so a
	// snapshot's clock says precisely which WAL tail still needs replay.
	seq uint64

	// inflight is the dirty set a running sweep took ownership of, kept
	// visible so a concurrent state snapshot still includes those users —
	// if the sweep aborts they merge back, and losing them from a snapshot
	// taken mid-sweep would silently drop detections after recovery.
	inflight map[bipartite.NodeID]uint64

	// cached are the groups of the last detection, kept for cheap
	// re-validation.
	cached []detect.Group

	// cache is the cross-sweep component verdict cache, created lazily by
	// cacheLocked. It lives across sweeps and is purged on every reset
	// (Reset/Retune/WAL-replayed resets). It is volatile by design: a
	// recovered detector starts cold and re-derives byte-identical verdicts
	// (the fingerprint, not the cache, is the correctness authority).
	cache *core.VerdictCache

	// durability (all nil/zero for a memory-only detector; see Open)
	wal       *durable.WAL
	dur       Durability
	walBuf    []byte
	walErr    error // first WAL failure, latched; see DurabilityErr
	sinceSnap int   // WAL records since the last snapshot
	snapMu    sync.Mutex

	// stats
	events     int
	detections int
	lastFull   bool

	// lastSweepEnd is when the previous sweep (committed or aborted)
	// finished; the stream.sweep.lag_ms gauge reports the age of that
	// moment at the start of each sweep, the operational "how stale is
	// detection" signal.
	lastSweepEnd time.Time

	// Steady-state scratch buffers, reused across sweeps and batches so
	// the hot ingest/sweep loop stops allocating once warm. All are only
	// touched under mu except seedScratch, which a sweep takes ownership
	// of (swapped to nil under mu) and returns at commit/abort.
	seedScratch []bipartite.NodeID
	deltaEdges  []bipartite.Edge
	walEnds     []int
	walEntries  []durable.Entry
}

// DefaultCompactFraction is the default compaction policy: a full rebuild
// once the raw pending rows exceed half the aggregated base. Patch cost is
// linear in the delta while rebuild cost is sort-dominated over the whole
// history, so by the time the delta is a constant fraction of the base a
// rebuild costs only a small multiple of the patch — compacting there
// bounds both the pending tail's memory and the patch chain's length.
const DefaultCompactFraction = 0.5

// expandCap bounds dirty-region seed expansion: items with more live
// clickers are not traversed through (their fan bases cannot co-form a
// near-biclique with a seed anyway — see core.GraphGeneratorBounded). It is
// generous relative to plausible attack-group head counts (the paper's
// case-study group had 28 accounts) yet far below hot items' fan bases.
const expandCap = 500

// New creates an incremental detector over an optional initial click table
// (nil starts empty). The initial table counts as dirty: the first sweep
// is a full detection.
func New(initial *clicktable.Table, params core.Params) (*Detector, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	d := &Detector{
		params: params,
		table:  clicktable.NewStaged(nil),
		dirty:  map[bipartite.NodeID]uint64{},
	}
	if initial != nil {
		d.table = clicktable.NewStaged(initial.Clone())
	}
	return d, nil
}

// AddClick streams one aggregated click event: AddBatch of one. Safe to
// call while a sweep is in flight; the click joins the next sweep's dirty
// region.
func (d *Detector) AddClick(user, item uint32, clicks uint32) {
	d.AddBatch([]clicktable.Record{{UserID: user, ItemID: item, Clicks: clicks}})
}

// AddBatch streams a batch of click records under one lock acquisition, so
// bulk replay (log catch-up, backfill) does not pay per-record contention
// against an in-flight sweep. Zero-click records are skipped. On a durable
// detector the batch is appended to the WAL before it touches the in-memory
// state (write-ahead), so every click visible to a sweep is recoverable.
func (d *Detector) AddBatch(records []clicktable.Record) {
	if len(records) == 0 {
		return
	}
	d.mu.Lock()
	walAppends := 0
	if d.walActiveLocked() {
		// Write-ahead for the whole batch in one syscall (and one fsync
		// under SyncAlways): records are encoded back to back into walBuf,
		// then sliced per entry once the buffer has stopped growing.
		d.walBuf = d.walBuf[:0]
		ends := d.walEnds[:0]
		for _, r := range records {
			if r.Clicks == 0 {
				continue
			}
			d.walBuf = appendClickRecord(d.walBuf, r.UserID, r.ItemID, r.Clicks)
			ends = append(ends, len(d.walBuf))
		}
		// entries reuses detector-owned scratch: AppendAll frames the batch
		// into its own buffer before returning, so neither the slice nor the
		// walBuf-aliasing payloads are retained.
		entries := d.walEntries[:0]
		prev := 0
		for i, end := range ends {
			entries = append(entries, durable.Entry{Seq: d.seq + uint64(i) + 1, Payload: d.walBuf[prev:end]})
			prev = end
		}
		d.walEnds, d.walEntries = ends, entries
		faultinject.Hit("stream.wal.append")
		if err := d.wal.AppendAll(entries); err != nil {
			d.degradeLocked(err)
		} else {
			d.sinceSnap += len(entries)
			walAppends = len(entries)
		}
	}
	n := 0
	var clicks int64
	for _, r := range records {
		if r.Clicks == 0 {
			continue
		}
		d.seq++
		d.table.Append(r.UserID, r.ItemID, r.Clicks)
		d.dirty[r.UserID] = d.seq
		d.events++
		n++
		clicks += int64(r.Clicks)
	}
	dirty := len(d.dirty)
	d.mu.Unlock()
	d.Obs.Counter("stream.events").Add(int64(n))
	d.Obs.Counter("stream.clicks").Add(clicks)
	d.Obs.Gauge("stream.dirty_users").Set(int64(dirty))
	if walAppends > 0 {
		d.Obs.Counter("stream.wal.appends").Add(int64(walAppends))
	}
}

// Events returns the total number of click events streamed since the
// detector was created (or, for a durable detector, since its very first
// incarnation — the count survives recovery). It never decreases: sweeps
// consume the dirty region, not this counter. Zero-click events are not
// counted, matching AddClick/AddBatch dropping them.
func (d *Detector) Events() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.events
}

// Graph returns the current aggregated click graph, bringing it up to date
// if the stream advanced: the clicks since the last build are patched onto
// the previous graph in O(delta) (or the graph is rebuilt from scratch
// when the compaction policy says so — the output is identical either
// way). The returned graph must not be mutated; once built it is
// never modified by the detector (new clicks produce a fresh Graph value),
// so it stays safe to read concurrently with ingestion.
func (d *Detector) Graph() *bipartite.Graph {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.graphLocked()
}

// graphLocked brings the aggregated graph up to date; d.mu must be held.
//
// This is the delta-maintenance core: between compactions the graph — not
// the table — is the aggregated source of truth. Fresh clicks accumulate
// as a raw pending tail; a build patches just that tail's aggregate onto
// the previous graph (copy-on-write on touched rows/columns), which costs
// O(clicks since last build) instead of O(total history). When the tail
// outgrows CompactFraction of the base — and on the first build — the build
// compacts: the full history is re-aggregated and the graph rebuilt from
// scratch. bipartite.PatchGraph's byte-identity contract (tested by
// FuzzGraphPatch and the delta golden harness) makes the two branches
// indistinguishable to every consumer.
func (d *Detector) graphLocked() *bipartite.Graph {
	if d.graph != nil && d.table.DeltaLen() == 0 {
		return d.graph
	}
	sp := d.Obs.Root().Start("stream.graph")
	faultinject.Hit("stream.graph")
	deltaRows := d.table.DeltaLen()
	frac := d.CompactFraction
	if frac <= 0 {
		frac = DefaultCompactFraction
	}
	patch := d.graph != nil &&
		float64(d.table.PendingLen()) <= frac*float64(d.table.BaseLen())
	if patch {
		delta := d.table.Delta()
		edges := d.deltaEdges[:0]
		delta.Records.Each(func(r clicktable.Record) bool {
			edges = append(edges, bipartite.Edge{U: r.UserID, V: r.ItemID, Weight: r.Clicks})
			return true
		})
		d.deltaEdges = edges
		d.graph = bipartite.PatchGraph(d.graph, edges)
		d.table.MarkPatched()
		sp.Set("mode", "patch")
		d.Obs.Counter("stream.graph.patch").Inc()
	} else {
		d.table.Compact()
		d.graph = d.table.Base().ToGraph()
		sp.Set("mode", "rebuild")
		d.Obs.Counter("stream.graph.rebuild").Inc()
	}
	d.Obs.Counter("stream.graph.delta_rows").Add(int64(deltaRows))
	sp.SetInt("delta_rows", int64(deltaRows))
	sp.End()
	return d.graph
}

// SweepContext runs incremental detection, one batched pass over the clicks
// accumulated since the last pass: previously detected groups are re-screened
// against the current graph, and group extraction runs scoped to the
// neighborhoods of nodes touched since the last call. The very first call (or
// a call after Reset) is a full detection. The screened groups are then
// identified against the sweep's graph (core.Identify) before anything is
// committed.
//
// Extraction is component-sharded (core.NearBicliqueExtractCtx): the work
// graph splits into connected components after core pruning and each runs on
// its own worker (bounded by the detector's core.Params.Workers), so a sweep
// touching several disjoint dirty neighborhoods prunes them concurrently.
// Pruning inside a sweep is frontier-driven end to end: an incremental
// sweep's work graph is already scoped to the dirty users' neighborhoods
// (GraphGeneratorBounded), so the frontier's all-dirty round-1 seed IS the
// sweep's dirty set rather than a whole-component re-prime, and every later
// round touches only vertices within two hops of an actual removal.
//
// The sweep checks ctx at its stage boundaries and inside
// extraction/screening; a cancelled or deadline-expired sweep returns a
// non-nil PARTIAL result (Result.Partial, Result.StageReached) with whatever
// the completed stages produced (unidentified), plus the context's error. A
// partial sweep commits nothing: the snapshotted dirty region is merged back
// and the cached groups are left untouched, so the next sweep redoes the work
// in full. A panicking stage is isolated into a *detect.StageError.
func (d *Detector) SweepContext(ctx context.Context) (*detect.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()

	// Snapshot: the sweep works on an immutable graph and private copies of
	// the dirty set and cached groups, so ingestion can proceed during it.
	// The sweep takes OWNERSHIP of the dirty map — mid-sweep AddClick marks
	// users in a fresh map, so a click for an already-snapshotted user
	// (streamed after the snapshot, hence invisible to this sweep's graph)
	// stays dirty for the next sweep instead of being un-marked by the
	// commit below.
	d.mu.Lock()
	g := d.graphLocked()
	params := d.params
	params.Cache = d.cacheLocked()
	full := !d.lastFull
	snap := d.dirty
	d.dirty = map[bipartite.NodeID]uint64{}
	// inflight keeps the owned set visible to concurrent state snapshots;
	// startSeq is the record-clock position this sweep's graph reflects —
	// the WAL sweep record carries it so replayed commits retire exactly
	// the same users.
	d.inflight = snap
	startSeq := d.seq
	// The seed slice is detector-owned scratch: this sweep takes ownership
	// (a hypothetical concurrent sweep would just allocate fresh) and
	// returns it at commit/abort, so steady-state sweeps reuse one backing
	// array instead of allocating per sweep.
	dirty := d.seedScratch[:0]
	d.seedScratch = nil
	for u := range snap {
		dirty = append(dirty, u)
	}
	cached := append([]detect.Group(nil), d.cached...)
	lastEnd := d.lastSweepEnd
	d.mu.Unlock()
	// Sorted seeds make the sweep bit-reproducible regardless of map
	// iteration order — required for the recovery-equivalence guarantee
	// (a replayed detector must re-derive byte-identical sweeps).
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	// The sorted dirty set doubles as the verdict cache's touched hint:
	// components containing a dirty user are known-churned and skip the
	// cache (shard.go). The slice is not mutated until commit/abort returns
	// it to scratch, well after detection finishes reading it.
	params.CacheTouched = dirty
	if !lastEnd.IsZero() {
		d.Obs.Gauge("stream.sweep.lag_ms").Set(time.Since(lastEnd).Milliseconds())
	}

	sp := d.Obs.Root().Start("stream.sweep")
	sweepType := "incremental"
	if full {
		sweepType = "full"
	}
	sp.Set("type", sweepType)
	sp.SetInt("dirty_users", int64(len(dirty)))
	cacheBefore := params.Cache.Stats()

	sink := d.Obs.Sink()
	if sink != nil {
		sink.Emit(obs.Event{Type: obs.EventSweepStart, Reason: sweepType, Users: len(dirty)})
	}
	var countersBefore map[string]int64
	if d.Obs.RunLedger() != nil {
		countersBefore = d.Obs.Metrics.Counters()
	}
	record := func(res *detect.Result, err error) {
		d.Obs.RecordRun("stream.sweep", sp, res.Elapsed, len(res.Groups), len(res.Users()), len(res.Items()),
			res.Partial, res.StageReached, err, countersBefore)
	}

	res := &detect.Result{}
	var reached string
	// identify ends both legs below: Module 3 runs inside the isolated stage,
	// before anything is committed, so the WAL record, the carried groups,
	// the audit trail, OnCommit and the caller all see one identified outcome.
	identify := func() error {
		reached = "identification"
		isp := sp.Start("identification")
		core.Identify(g, res)
		isp.End()
		reached = ""
		return nil
	}
	err := detect.RunStage("stream.sweep", func() error {
		faultinject.Hit("stream.sweep")
		reached = "hotset"
		if err := ctx.Err(); err != nil {
			return err
		}
		hsp := sp.Start("hotset")
		hot := core.ComputeHotSet(g, params.THot)
		hsp.End()

		var seeds detect.Seeds
		if !full {
			// Seed only dirty users showing the crowd-worker signature: an
			// edge of weight ≥ T_click to a non-hot item. Every member of a
			// screenable group satisfies this (the user behavior check
			// requires it), so filtering cannot lose a detectable group, and
			// it keeps ordinary background churn from widening the sweep.
			fsp := sp.Start("seed_filter")
			for _, u := range dirty {
				if suspiciousUser(g, hot, u, params.TClick) {
					seeds.Users = append(seeds.Users, u)
				}
			}
			fsp.SetInt("seeds", int64(len(seeds.Users)))
			fsp.End()
		}

		reached = "extraction"
		var fresh, screened []detect.Group
		var screenedOK bool
		var eerr error
		if full {
			// A full sweep carries no cached groups (lastFull is only
			// cleared by New/Reset, which also clear them), so the
			// candidate set IS the fresh extraction and screening can ride
			// inside the shards: cache hits skip it entirely. Incremental
			// sweeps must keep the global screening pass — fresh and
			// carried-over groups can overlap or connect.
			work := core.GraphGenerator(g, detect.Seeds{})
			fresh, screened, screenedOK, eerr = core.NearBicliqueExtractCachedCtx(ctx, work, hot, params, sp, d.Obs)
		} else if len(seeds.Users) > 0 {
			gsp := sp.Start("dirty_expand")
			work := core.GraphGeneratorBounded(g, seeds, expandCap)
			gsp.SetInt("scope_users", int64(work.LiveUsers()))
			gsp.SetInt("scope_items", int64(work.LiveItems()))
			gsp.End()
			d.Obs.Gauge("stream.sweep.scope_users").Set(int64(work.LiveUsers()))
			fresh, eerr = core.NearBicliqueExtractCtx(ctx, work, params, sp, d.Obs)
		}
		if eerr != nil {
			return eerr
		}

		reached = "screening"
		if screenedOK {
			ssp := sp.Start("screening")
			ssp.Set("cached", "shards")
			ssp.End()
			res.Groups = screened
			return identify()
		}
		// Merge candidates: freshly extracted groups around the dirty region
		// plus the cached groups (monotonicity keeps their extraction
		// validity; screening below re-judges them against current weights
		// and hotness).
		candidates := append(append([]detect.Group(nil), fresh...), cached...)
		ssp := sp.Start("screening")
		var serr error
		res.Groups, serr = core.ScreenGroupsCtx(ctx, g, candidates, hot, params, ssp, d.Obs)
		ssp.End()
		if serr != nil {
			return serr
		}
		return identify()
	})

	res.Elapsed = time.Since(start)
	res.DetectElapsed = res.Elapsed
	sp.SetInt("groups", int64(len(res.Groups)))
	cs := params.Cache.Stats()
	sp.SetInt("cache_hits", cs.Hits-cacheBefore.Hits)
	sp.SetInt("cache_misses", cs.Misses-cacheBefore.Misses)
	if err != nil {
		// Graceful degradation: report what completed, commit nothing. The
		// snapshotted dirty users merge back into the live set (which may
		// have gained mid-sweep users, whose newer seqs win) so the next
		// sweep redoes this one's work.
		d.mu.Lock()
		for u, s := range snap {
			if cur, ok := d.dirty[u]; !ok || cur < s {
				d.dirty[u] = s
			}
		}
		d.inflight = nil
		d.seedScratch = dirty[:0]
		remaining := len(d.dirty)
		d.lastSweepEnd = time.Now()
		d.mu.Unlock()
		res.Partial = true
		res.StageReached = reached
		sp.Set("partial", reached)
		sp.End()
		d.Obs.Counter("stream.sweeps.aborted").Inc()
		d.Obs.Counter("detect.partial").Inc()
		if reached != "" {
			d.Obs.Counter("detect.stage_reached." + reached).Inc()
		}
		d.Obs.Histogram("stream.sweep.latency").Observe(res.Elapsed)
		d.Obs.Gauge("stream.dirty_users").Set(int64(remaining))
		if sink != nil {
			sink.Emit(obs.Event{Type: obs.EventSweepAbort, Reason: reached, Groups: len(res.Groups)})
		}
		record(res, err)
		return res, err
	}
	sp.End()
	d.Obs.Counter("stream.sweeps." + sweepType).Inc()
	d.Obs.Histogram("stream.sweep." + sweepType).Observe(res.Elapsed)
	d.Obs.Histogram("stream.sweep.latency").Observe(res.Elapsed)

	// Commit: the sweep owned its dirty snapshot, so only the users whose
	// clicks this sweep actually examined are retired; clicks streamed
	// during the sweep are already accumulating in the live map for the
	// next one. On a durable detector the commit is written ahead to the
	// WAL — a recovered detector replays it as "at record startSeq, these
	// groups became the cache", which retires the same users by seq.
	d.mu.Lock()
	d.seq++
	walLogged := false
	if d.walActiveLocked() {
		d.walBuf = appendSweepRecord(d.walBuf[:0], startSeq, res.Groups)
		faultinject.Hit("stream.wal.append")
		if werr := d.wal.Append(d.seq, d.walBuf); werr != nil {
			d.degradeLocked(werr)
		} else {
			d.sinceSnap++
			walLogged = true
		}
	}
	d.cached = res.Groups
	d.inflight = nil
	d.seedScratch = dirty[:0]
	remaining := len(d.dirty)
	d.lastFull = true
	d.detections++
	d.lastSweepEnd = time.Now()
	snapDue := d.wal != nil && d.walErr == nil && d.dur.SnapshotEvery > 0 && d.sinceSnap >= d.dur.SnapshotEvery
	d.mu.Unlock()
	if walLogged {
		d.Obs.Counter("stream.wal.appends").Inc()
	}
	d.Obs.Gauge("stream.dirty_users").Set(int64(remaining))
	if sink != nil {
		core.EmitGroupVerdicts(sink, res.Groups)
		sink.Emit(obs.Event{Type: obs.EventSweepCommit, Reason: sweepType, Groups: len(res.Groups)})
	}
	if d.OnCommit != nil {
		// g is the immutable snapshot this sweep examined (mid-sweep clicks
		// rebuilt a fresh graph), so the hook reads consistent state.
		d.OnCommit(res, g)
	}
	if snapDue {
		// Automatic snapshot at the sweep boundary — the only point where
		// state is compact (dirty region retired) and no sweep is running.
		// Failures are counted and audited inside Snapshot; the sweep's
		// result stands either way.
		_ = d.Snapshot()
	}
	record(res, nil)
	return res, nil
}

// suspiciousUser reports whether u carries the abnormal-click signature of
// Section IV-A: at least tClick clicks on some ordinary (non-hot) item.
func suspiciousUser(g *bipartite.Graph, hot *core.HotSet, u bipartite.NodeID, tClick uint32) bool {
	found := false
	g.EachUserNeighbor(u, func(v bipartite.NodeID, w uint32) bool {
		if w >= tClick && !hot.IsHot(v) {
			found = true
			return false
		}
		return true
	})
	return found
}

// FullDetectContext bypasses the incremental path and runs the batch RICD
// detector on the current graph — the reference the incremental result is
// validated against in tests and benchmarks — with the same partial-result
// contract as core.(*Detector).DetectContext.
func (d *Detector) FullDetectContext(ctx context.Context) (*detect.Result, error) {
	d.mu.Lock()
	g := d.graphLocked()
	params := d.params
	// Full detections share the sweep cache (no touched hint: the batch
	// detector examines the whole current graph, so every unchanged
	// component is a legitimate hit).
	params.Cache = d.cacheLocked()
	params.CacheTouched = nil
	d.mu.Unlock()
	return (&core.Detector{Params: params, Obs: d.Obs}).DetectContext(ctx, g)
}

// cacheLocked returns the detector's verdict cache, creating it on first
// use. d.mu must be held.
func (d *Detector) cacheLocked() *core.VerdictCache {
	if d.cache == nil {
		d.cache = core.NewVerdictCache(core.DefaultCacheBytes)
	}
	return d.cache
}

// CacheStats reports the verdict cache's lifetime counters (the zero value
// when the cache is not yet created).
func (d *Detector) CacheStats() core.CacheStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cache == nil {
		return core.CacheStats{}
	}
	return d.cache.Stats()
}

// Reset drops the cached detection state, forcing the next sweep to run
// fully (for example after a parameter change via Retune). On a durable
// detector the reset is WAL-logged so recovery reproduces it.
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.logResetLocked()
	d.resetLocked()
}

// resetLocked is the pure state reset shared by Reset, Retune and WAL
// replay; d.mu must be held. It does not touch the record clock — the
// callers that originate a reset log it first.
func (d *Detector) resetLocked() {
	d.cached = nil
	d.lastFull = false
	d.dirty = map[bipartite.NodeID]uint64{}
	if d.cache != nil {
		// Invalidate wholesale: Reset/Retune change what a fingerprint's
		// entry would have been computed under (params may change via
		// Retune; replayed resets mark state discontinuities), and the
		// cache is cheap to rebuild — correctness over warmth.
		d.cache.Purge()
	}
}

// logResetLocked advances the record clock and write-ahead-logs a reset.
func (d *Detector) logResetLocked() {
	d.seq++
	if d.walActiveLocked() {
		d.walBuf = appendResetRecord(d.walBuf[:0])
		if err := d.wal.Append(d.seq, d.walBuf); err != nil {
			d.degradeLocked(err)
		} else {
			d.sinceSnap++
		}
	}
}

// Retune swaps detection parameters and resets the incremental state.
// Parameters themselves are configuration, not state: a durable detector
// recovered via Open uses whatever params the reopening caller passes, so
// operators must persist param changes in their own config alongside the
// WAL directory.
func (d *Detector) Retune(params core.Params) error {
	if err := params.Validate(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.params = params
	d.logResetLocked()
	d.resetLocked()
	return nil
}

// Detections returns how many sweeps have committed.
func (d *Detector) Detections() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.detections
}
