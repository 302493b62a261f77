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
//
// The detector is a state machine driven by its own log. Three record types
// change its state — a click, a sweep commit, a reset — and each has exactly
// one apply function (applyClick, applySweep, resetLocked). The live path is
// "tick the record clock, write the record ahead, apply it"; recovery
// (durable.go) is "apply" over the same functions, so a recovered detector
// holds the state the live one held, not merely an equivalent one.
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

	// compactFraction is the delta-maintenance compaction policy: when the
	// raw rows accumulated since the last compaction exceed this fraction
	// of the aggregated base table, the next graph build folds them in with
	// a full rebuild instead of patching (amortizing the pending tail away).
	// Zero means DefaultCompactFraction; tests set it to force either
	// regime before first use.
	compactFraction float64

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
	// record-clock value (seq) of their newest click. A sweep only borrows
	// the keys; its commit (applySweep) retires exactly the users whose
	// newest activity the sweep's snapshot actually saw.
	dirty map[bipartite.NodeID]uint64

	// seq is the detector's record clock: one tick per click event and per
	// committed sweep. Durable detectors stamp WAL records with it, so a
	// snapshot's clock says precisely which WAL tail still needs replay.
	seq uint64

	// resetSeq is the record clock of the newest reset this incarnation
	// applied: a sweep whose snapshot predates it is superseded (see
	// supersededLocked). Volatile — no sweep is in flight across a recovery.
	resetSeq uint64

	// cached are the groups of the last committed sweep, carried into the
	// next one for cheap re-validation.
	cached []detect.Group

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
	// of (swapped to nil under mu) and returns when it ends.
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
		d.applyClick(r.UserID, r.ItemID, r.Clicks)
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

// applyClick applies one click record stamped with the current record clock
// — the only code that appends to the table or marks a user dirty, shared by
// AddBatch and WAL replay. d.mu must be held.
func (d *Detector) applyClick(user, item, clicks uint32) {
	d.table.Append(user, item, clicks)
	d.dirty[user] = d.seq
	d.events++
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
// outgrows compactFraction of the base — and on the first build — the build
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
	frac := d.compactFraction
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

// sweepInput is everything a sweep's detection work reads: an immutable graph
// and private copies of the detector state it depends on, so runSweep needs
// neither the detector nor its lock.
type sweepInput struct {
	g      *bipartite.Graph
	params core.Params
	// full selects a batch detection of the whole graph (the first sweep
	// after New, Open or a reset) over extraction on the bounded ball
	// around the suspicious dirty users.
	full bool
	// dirty is sorted, so the sweep is bit-reproducible regardless of map
	// iteration order — required for the recovery-equivalence guarantee.
	dirty   []bipartite.NodeID
	carried []detect.Group
}

// sweepPass is one sweep from beginSweep to commitSweep | abortSweep.
type sweepPass struct {
	sweepInput
	// startSeq is the record-clock position the sweep's graph reflects. The
	// commit retires the dirty users at or before it, and the WAL sweep
	// record carries it so a replayed commit retires exactly the same ones.
	startSeq       uint64
	start          time.Time
	sp             *obs.Span
	countersBefore map[string]int64
}

func (sw *sweepPass) kind() string {
	if sw.full {
		return "full"
	}
	return "incremental"
}

// SweepContext runs incremental detection, one batched pass over the clicks
// accumulated since the last pass: group extraction runs scoped to the
// neighborhoods of the users touched since the last committed sweep, and the
// groups it finds are screened together with the carried ones against the
// current graph. The first sweep after New, Open or a reset is full: the
// batch detection FullDetectContext runs. The screened groups are then
// identified against the sweep's graph (core.Identify) before anything is
// committed.
//
// A sweep is four steps: begin (snapshot under the lock), run (the detection
// work, lock-free on the snapshot, so ingestion proceeds during it; extraction
// is component-sharded on up to core.Params.Workers workers), then commit or
// abort.
//
// The sweep checks ctx at its stage boundaries and inside
// extraction/screening; a cancelled or deadline-expired sweep returns a
// non-nil PARTIAL result (Result.Partial, Result.StageReached) with whatever
// the completed stages produced (unidentified), plus the context's error. A
// partial sweep commits nothing, so the next sweep redoes the work in full. A
// panicking stage is isolated into a *detect.StageError. A sweep that a
// Reset/Retune overtook returns its (complete) result but commits nothing
// either: see supersededLocked.
func (d *Detector) SweepContext(ctx context.Context) (*detect.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sw := d.beginSweep()
	res, reached, err := runSweep(ctx, sw.sweepInput, sw.sp, d.Obs)
	res.Elapsed = time.Since(sw.start)
	res.DetectElapsed = res.Elapsed
	sw.sp.SetInt("groups", int64(len(res.Groups)))
	if err != nil {
		d.abortSweep(sw, res, reached)
	} else {
		d.commitSweep(sw, res)
	}
	d.Obs.RecordRun("stream.sweep", sw.sp, res.Elapsed, len(res.Groups), len(res.Users()), len(res.Items()),
		res.Partial, res.StageReached, err, sw.countersBefore)
	return res, err
}

// beginSweep snapshots what the sweep works on and opens its span and audit
// bracket. The sweep BORROWS the dirty set — it copies the keys and owes
// nothing back: a click streamed after this point (hence invisible to the
// sweep's graph) stamps its user with a seq above startSeq, which the commit
// leaves dirty for the next sweep.
func (d *Detector) beginSweep() *sweepPass {
	sw := &sweepPass{start: time.Now()}
	d.mu.Lock()
	sw.g = d.graphLocked()
	sw.params = d.params
	sw.full = !d.lastFull
	sw.startSeq = d.seq
	// The seed slice is detector-owned scratch: this sweep takes ownership
	// (a hypothetical concurrent sweep would just allocate fresh) and
	// returns it when it ends, so steady-state sweeps reuse one backing
	// array instead of allocating per sweep.
	sw.dirty = d.seedScratch[:0]
	d.seedScratch = nil
	for u := range d.dirty {
		sw.dirty = append(sw.dirty, u)
	}
	sw.carried = append([]detect.Group(nil), d.cached...)
	lastEnd := d.lastSweepEnd
	d.mu.Unlock()
	sort.Slice(sw.dirty, func(i, j int) bool { return sw.dirty[i] < sw.dirty[j] })
	if !lastEnd.IsZero() {
		d.Obs.Gauge("stream.sweep.lag_ms").Set(time.Since(lastEnd).Milliseconds())
	}

	sw.sp = d.Obs.Root().Start("stream.sweep")
	sw.sp.Set("type", sw.kind())
	sw.sp.SetInt("dirty_users", int64(len(sw.dirty)))
	if sink := d.Obs.Sink(); sink != nil {
		sink.Emit(obs.Event{Type: obs.EventSweepStart, Reason: sw.kind(), Users: len(sw.dirty)})
	}
	if d.Obs.RunLedger() != nil {
		sw.countersBefore = d.Obs.Metrics.Counters()
	}
	return sw
}

// runSweep is the detection work of one sweep: hot set → work graph →
// Algorithm 3 → screening → identification, as one panic-isolated stage. It
// returns the result, the stage a failure interrupted ("" when none) and the
// failure. It reads only its input, never the detector.
func runSweep(ctx context.Context, in sweepInput, sp *obs.Span, o *obs.Observer) (res *detect.Result, reached string, err error) {
	res = &detect.Result{}
	err = detect.RunStage("stream.sweep", func() error {
		faultinject.Hit("stream.sweep")
		reached = "hotset"
		if err := ctx.Err(); err != nil {
			return err
		}
		hsp := sp.Start("hotset")
		hot := core.ComputeHotSet(in.g, in.params.THot)
		hsp.End()

		var seeds detect.Seeds
		if !in.full {
			// Seed only dirty users showing the crowd-worker signature: an
			// edge of weight ≥ T_click to a non-hot item. Every member of a
			// screenable group satisfies this (the user behavior check
			// requires it), so filtering cannot lose a detectable group, and
			// it keeps ordinary background churn from widening the sweep.
			fsp := sp.Start("seed_filter")
			for _, u := range in.dirty {
				if suspiciousUser(in.g, hot, u, in.params.TClick) {
					seeds.Users = append(seeds.Users, u)
				}
			}
			fsp.SetInt("seeds", int64(len(seeds.Users)))
			fsp.End()
		}

		reached = "extraction"
		var work *bipartite.Graph
		scope := 0 // users of the work graph; a seedless incremental sweep has none
		if in.full {
			work = core.GraphGenerator(in.g, detect.Seeds{})
			scope = work.LiveUsers()
		} else if len(seeds.Users) > 0 {
			gsp := sp.Start("dirty_expand")
			work = core.GraphGeneratorBounded(in.g, seeds, expandCap)
			scope = work.LiveUsers()
			gsp.SetInt("scope_users", int64(scope))
			gsp.SetInt("scope_items", int64(work.LiveItems()))
			gsp.End()
		}
		o.Gauge("stream.sweep.scope_users").Set(int64(scope))
		// A full sweep is a batch detection; only New, Open and a reset make
		// a sweep full, so it carries no groups. An incremental sweep screens
		// fresh and carried candidates (monotonicity keeps the carried valid)
		// in one pass: the two can overlap or connect.
		var screen func(ssp *obs.Span) ([]detect.Group, error)
		if in.full {
			outc, eerr := core.ExtractCandidatesCtx(ctx, work, hot, in.params, sp, o)
			if eerr != nil {
				return eerr
			}
			screen = func(ssp *obs.Span) ([]detect.Group, error) { return outc.Screen(ctx, in.params, ssp, o) }
		} else {
			candidates := in.carried
			if work != nil {
				fresh, eerr := core.NearBicliqueExtractCtx(ctx, work, in.params, sp, o)
				if eerr != nil {
					return eerr
				}
				candidates = append(fresh, candidates...)
			}
			screen = func(ssp *obs.Span) ([]detect.Group, error) {
				return core.ScreenGroupsCtx(ctx, in.g, candidates, hot, in.params, ssp, o)
			}
		}

		reached = "screening"
		ssp := sp.Start("screening")
		var serr error
		res.Groups, serr = screen(ssp)
		ssp.End()
		if serr != nil {
			return serr
		}

		// Module 3 runs inside the isolated stage, before anything is
		// committed, so the WAL record, the carried groups, the audit trail,
		// OnCommit and the caller all see one identified outcome.
		reached = "identification"
		isp := sp.Start("identification")
		core.Identify(in.g, res)
		isp.End()
		reached = ""
		return nil
	})
	return res, reached, err
}

// endSweepLocked is the bookkeeping every sweep ends with, committed or not;
// it returns the dirty users left for the next sweep. d.mu must be held.
func (d *Detector) endSweepLocked(sw *sweepPass) int {
	d.seedScratch = sw.dirty[:0]
	d.lastSweepEnd = time.Now()
	return len(d.dirty)
}

// abortSweep ends a sweep that failed: graceful degradation — report what
// completed, commit nothing. The sweep only borrowed the dirty set, so there
// is nothing to restore and the next sweep redoes this one's work.
func (d *Detector) abortSweep(sw *sweepPass, res *detect.Result, reached string) {
	d.mu.Lock()
	remaining := d.endSweepLocked(sw)
	d.mu.Unlock()
	res.Partial = true
	res.StageReached = reached
	sw.sp.Set("partial", reached)
	sw.sp.End()
	d.Obs.Counter("stream.sweeps.aborted").Inc()
	d.Obs.Counter("detect.partial").Inc()
	if reached != "" {
		d.Obs.Counter("detect.stage_reached." + reached).Inc()
	}
	d.Obs.Histogram("stream.sweep.latency").Observe(res.Elapsed)
	d.Obs.Gauge("stream.dirty_users").Set(int64(remaining))
	if sink := d.Obs.Sink(); sink != nil {
		sink.Emit(obs.Event{Type: obs.EventSweepAbort, Reason: reached, Groups: len(res.Groups)})
	}
}

// supersededLocked reports whether a reset overtook a sweep whose snapshot
// was taken at startSeq. Such a sweep ran under state the reset declared
// stale, so it commits nothing and the reset's promise — the next sweep runs
// fully, under the current parameters — holds. The live commit asks before it
// writes ahead (a superseded sweep leaves no WAL record) and replay asks
// before it applies, so the two agree on any log. d.mu must be held.
func (d *Detector) supersededLocked(startSeq uint64) bool {
	return startSeq < d.resetSeq
}

// applySweep applies one sweep-commit record, shared by the live commit and
// WAL replay: the groups become the carried set and exactly the users whose
// newest click the sweep's snapshot saw (seq ≤ startSeq) are retired — users
// touched while the sweep ran carry a newer seq and stay dirty for the next
// one. d.mu must be held.
func (d *Detector) applySweep(startSeq uint64, groups []detect.Group) {
	for u, s := range d.dirty {
		if s <= startSeq {
			delete(d.dirty, u)
		}
	}
	d.cached = groups
	d.lastFull = true
	d.detections++
}

// commitSweep ends a sweep that completed: tick the record clock, write the
// commit ahead to the WAL (durable detectors), apply it — unless a reset
// superseded the sweep, which then ends without a trace in the state.
func (d *Detector) commitSweep(sw *sweepPass, res *detect.Result) {
	sw.sp.End()
	d.mu.Lock()
	superseded := d.supersededLocked(sw.startSeq)
	walLogged := false
	if !superseded {
		d.seq++
		if d.walActiveLocked() {
			d.walBuf = appendSweepRecord(d.walBuf[:0], sw.startSeq, res.Groups)
			faultinject.Hit("stream.wal.append")
			if werr := d.wal.Append(d.seq, d.walBuf); werr != nil {
				d.degradeLocked(werr)
			} else {
				d.sinceSnap++
				walLogged = true
			}
		}
		d.applySweep(sw.startSeq, res.Groups)
	}
	remaining := d.endSweepLocked(sw)
	snapDue := !superseded && d.wal != nil && d.walErr == nil && d.dur.SnapshotEvery > 0 && d.sinceSnap >= d.dur.SnapshotEvery
	d.mu.Unlock()

	d.Obs.Histogram("stream.sweep.latency").Observe(res.Elapsed)
	d.Obs.Gauge("stream.dirty_users").Set(int64(remaining))
	sink := d.Obs.Sink()
	if superseded {
		sw.sp.Set("superseded", "reset")
		d.Obs.Counter("stream.sweeps.superseded").Inc()
		if sink != nil {
			sink.Emit(obs.Event{Type: obs.EventSweepAbort, Reason: "superseded", Groups: len(res.Groups)})
		}
		return
	}
	d.Obs.Counter("stream.sweeps." + sw.kind()).Inc()
	d.Obs.Histogram("stream.sweep." + sw.kind()).Observe(res.Elapsed)
	if walLogged {
		d.Obs.Counter("stream.wal.appends").Inc()
	}
	if sink != nil {
		core.EmitGroupVerdicts(sink, res.Groups)
		sink.Emit(obs.Event{Type: obs.EventSweepCommit, Reason: sw.kind(), Groups: len(res.Groups)})
	}
	if d.OnCommit != nil {
		// sw.g is the immutable snapshot this sweep examined (mid-sweep
		// clicks rebuilt a fresh graph), so the hook reads consistent state.
		d.OnCommit(res, sw.g)
	}
	if snapDue {
		// Automatic snapshot at the sweep boundary — the only point where
		// state is compact (dirty region retired) and no sweep is running.
		// Failures are counted and audited inside Snapshot; the sweep's
		// result stands either way.
		_ = d.Snapshot()
	}
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

// FullDetectContext runs the batch detection, core.(*Detector).DetectContext,
// on the current graph — the refresh, and the reference the incremental
// result is validated against in tests and benchmarks. It commits nothing:
// the dirty set, the carried groups and the record clock stay as they were.
// It has the partial-result contract of core.(*Detector).DetectContext.
func (d *Detector) FullDetectContext(ctx context.Context) (*detect.Result, error) {
	d.mu.Lock()
	g := d.graphLocked()
	det := &core.Detector{Params: d.params, Obs: d.Obs}
	d.mu.Unlock()
	return det.DetectContext(ctx, g)
}

// CacheStats holds the counters (*Detector).CacheStats reports, all zero.
type CacheStats struct{ Hits, Misses, Evictions, Bytes int64 }

// CacheStats returns the zero value: the detector keeps no verdict cache.
// The method stays only because the benchmark harness still reads it, and
// goes when the benchmark stops (ROADMAP.md item 1).
func (d *Detector) CacheStats() CacheStats { return CacheStats{} }

// Reset drops the cached detection state, forcing the next sweep to run
// fully (for example after a parameter change via Retune). On a durable
// detector the reset is WAL-logged so recovery reproduces it.
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.logResetLocked()
	d.resetLocked()
}

// resetLocked applies one reset record stamped with the current record
// clock, shared by Reset, Retune and WAL replay; d.mu must be held. It does
// not tick the clock — the callers that originate a reset log it first.
func (d *Detector) resetLocked() {
	d.resetSeq = d.seq
	d.cached = nil
	d.lastFull = false
	d.dirty = map[bipartite.NodeID]uint64{}
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
