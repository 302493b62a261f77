package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// streamWorkload is what differs between the three workloads that drive the
// streaming detector; the lap itself is shared.
type streamWorkload struct {
	generate     func(runConfig) (*streamInput, error)
	durable      bool // stream.Open behind a stream.Buffer, then crash recovery
	refreshEvery int  // every Nth cycle additionally FullDetectContext + compile + publish
	replayEvery  int  // traced laps: every Nth cycle the layer replay
	lapSeconds   float64
	wantGroups   int  // > 0: every sweep and refresh must return exactly this many groups
	oracleGate   bool // the closing refresh must equal the batch detector on the aggregated table
}

func runStream(h *harness, w *streamWorkload) error {
	h.cfg.LapSeconds = w.lapSeconds
	for mode, ok := h.nextLap(); ok; mode, ok = h.nextLap() {
		if err := w.lap(h, mode); err != nil {
			return err
		}
	}
	if h.cfg.Trace && w.durable {
		return walProbe(h)
	}
	return nil
}

// walProbe times the WAL by itself: 512-entry batches without fsync (what
// the workload runs with) and with it (disk-dependent: a layer figure only).
func walProbe(h *harness) error {
	for _, probe := range []struct {
		fsync   bool
		batches int
	}{{false, 200}, {true, 20}} {
		dir, err := tempDir(h.cfg.OutDir, "walprobe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		batches := scaled(probe.batches, h.cfg.Scale, 2)
		if err := walAppendProbe(dir, probe.fsync, batches); err != nil {
			return fmt.Errorf("WAL probe: %w", err)
		}
		d := time.Since(t0)
		if probe.fsync {
			h.s.add("durable.append_fsync_us_per_batch", us(d)/float64(batches))
		} else {
			h.s.add("durable.append_ns_per_click", float64(d.Nanoseconds())/float64(batches*512))
		}
	}
	return nil
}

// lapState is one lap in flight.
type lapState struct {
	h   *harness
	w   *streamWorkload
	in  *streamInput
	tr  *tracer
	ls  samples
	ctx context.Context

	det   *Detector
	buf   *Buffer
	store *Store
	pub   *publisher

	// traced laps only: a staged table fed the same clicks as the detector,
	// and the graph it maintains
	mirror      *Staged
	mirrorGraph *Graph
}

func (w *streamWorkload) lap(h *harness, mode lapMode) (err error) {
	l := &lapState{h: h, w: w, tr: h.tracerFor(mode), ls: samples{}, ctx: context.Background()}
	defer func() { h.merge(mode, l.ls) }()

	// ---- set-up: generation + priming ----
	tSetup := time.Now()
	l.in, err = w.generate(h.cfg)
	if err != nil {
		return err
	}
	in := l.in
	l.ls.add("synth.generate_ms", in.genMS)
	l.ls.add("synth.event_stream_ms", in.eventsMS)

	var o *Observer
	if mode == lapObserved || mode == lapAudited {
		o = newObserver(mode == lapAudited)
	}
	l.store = newStore(o)
	l.pub = &publisher{store: l.store, params: in.params, tr: l.tr, ls: l.ls, parent: -1, cycle: -1}
	walDir := ""
	tPrime := time.Now()
	if w.durable {
		if walDir, err = tempDir(h.cfg.OutDir, "wal-"); err != nil {
			return err
		}
		defer os.RemoveAll(walDir)
		var info recoveryInfo
		if l.det, info, err = openDurable(walDir, in.snapshotEvery, in.params, o); err != nil {
			return err
		}
		if !info.coldStart {
			return fmt.Errorf("fresh WAL directory %s was not a cold start", walDir)
		}
		l.buf = newBlockingBuffer(l.det)
	} else if l.det, err = newMemoryDetector(in.params, o); err != nil {
		return err
	}
	defer l.close()
	setOnCommit(l.det, l.pub.publish)
	server := newServer(l.store, l.det, o)

	l.ingest(in.prime, -1, -1)
	if res, serr := sweepCtx(l.ctx, l.det); serr != nil || res.Partial {
		return fmt.Errorf("priming sweep: partial=%v err=%v", res != nil && res.Partial, serr)
	}
	l.ls.add("setup_s", time.Since(tSetup).Seconds())
	if !w.durable {
		// No durable state: a restarted process re-ingests its history
		// from the click source, which is exactly what priming did.
		l.ls.add("recover_ms", ms(l.pub.publishedAt.Sub(tPrime)))
	}
	if l.tr != nil {
		l.mirror = newStaged()
		for _, r := range in.prime {
			l.mirror.AppendRecord(r)
		}
		l.mirror.Compact()
		l.mirrorGraph = l.mirror.Base().ToGraph()
	}

	// ---- timed phase ----
	ticks := in.ticks[:mode.cycles(len(in.ticks))]
	var m0, m1 runtime.MemStats
	cache0 := detectorCacheStats(l.det)
	runtime.ReadMemStats(&m0)
	qc, err := startQueryClient(server, in.body)
	if err != nil {
		return err
	}
	tTimed := time.Now()
	clicks := 0
	for c, tick := range ticks {
		l.cycle(c, tick)
		clicks += len(tick)
	}
	wall := time.Since(tTimed)
	qc.finish(h, l.ls)
	runtime.ReadMemStats(&m1)
	cache1 := detectorCacheStats(l.det)
	l.ls.add("clicks_per_s", float64(clicks)/wall.Seconds())
	if mode.full() {
		h.count["lap_clicks"] = float64(clicks)
	}
	l.ls.add("alloc_mb_per_cycle", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(len(ticks)))
	if h.reported(mode) {
		h.count["stream.clicks_in"] += float64(clicks)
		h.count["core.cache_hits"] += float64(cache1.hits - cache0.hits)
		h.count["core.cache_lookups"] += float64(cache1.hits - cache0.hits + cache1.misses - cache0.misses)
		h.count["core.cache_evictions"] += float64(cache1.evictions - cache0.evictions)
		h.count["core.cache_bytes"] = float64(cache1.bytes)
		h.count["serve.epochs"] += float64(l.store.Epoch())
	}
	if !mode.full() {
		return nil
	}

	// ---- after the clock stops: correctness gates, recovery ----
	if l.pub.failed > 0 {
		h.mismatch("%d publishes failed", l.pub.failed)
	}
	var final *Result
	if w.durable {
		if final, err = l.crashAndRecover(walDir); err != nil {
			return err
		}
	} else {
		if final, err = l.closingRefresh(); err != nil {
			return err
		}
	}
	h.closeLap(l.ls, l.tr != nil, final, in.truth, server, l.store, in.body, in.entries)
	return nil
}

// close releases what the lap holds; safe after crashAndRecover closed it.
func (l *lapState) close() {
	if l.buf != nil {
		_ = l.buf.Close(l.ctx) // idempotent; the context cannot expire
	}
	if err := l.det.Close(); err != nil {
		l.h.mismatch("closing the WAL: %v", err)
	}
	if err := l.det.DurabilityErr(); err != nil {
		l.h.mismatch("durability degraded: %v", err)
		l.h.count["durable.errors"]++
	}
	runtime.GC() // so the next lap's peak does not stack on this lap's garbage
}

// ingest hands clicks to the program the way cmd/stream does: straight into
// AddBatch, or through the bounded buffer when the workload has one.
func (l *lapState) ingest(recs []Record, parent, cycle int) {
	t0 := time.Now()
	if l.buf == nil {
		l.det.AddBatch(recs)
	} else {
		for _, r := range recs {
			if !l.buf.Offer(r) {
				l.h.failed++ // shed under the block policy: the workload is sized so this never happens
				l.h.count["stream.buffer_shed"]++
			}
		}
		tOffered := time.Now()
		l.ls.add("stream.buffer_offer_ns", float64(tOffered.Sub(t0).Nanoseconds())/float64(len(recs)))
		if err := l.buf.Flush(l.ctx); err != nil {
			l.h.mismatch("buffer flush: %v", err)
		}
	}
	t1 := time.Now()
	l.tr.record("stream.add_batch", parent, cycle, t0, t1)
	l.ls.add("stream.add_batch_ns_per_click", float64(t1.Sub(t0).Nanoseconds())/float64(len(recs)))
	l.h.attempted += len(recs)
}

// cycle is one turn of the closed loop: hand the tick to the ingest call,
// sweep, and (inside the sweep, through OnCommit) compile and publish.
func (l *lapState) cycle(c int, tick []Record) {
	h, w := l.h, l.w
	replay := l.tr != nil && c%w.replayEvery == w.replayEvery-1

	t0 := time.Now()
	cs := l.tr.open("cycle", -1, c, t0)
	l.ingest(tick, cs, c)

	tSweep := time.Now()
	ss := l.tr.open("stream.sweep", cs, c, tSweep)
	l.pub.parent, l.pub.cycle, l.pub.spent = ss, c, 0
	res, err := sweepCtx(l.ctx, l.det)
	tEnd := time.Now()
	l.tr.close(ss, tEnd)
	h.attempted++
	h.count["stream.sweeps"]++
	sweepSelf := tEnd.Sub(tSweep) - l.pub.spent
	switch {
	case err != nil || res == nil:
		h.mismatch("cycle %d: sweep failed: %v", c, err)
		return
	case res.Partial:
		h.mismatch("cycle %d: partial sweep (stage %q)", c, res.StageReached)
		h.count["stream.partial_sweeps"]++
		return
	}
	// The epoch whose sweep saw this tick is visible from the moment the
	// hook's Publish returned, which is before SweepContext itself returns
	// when a snapshot is due.
	l.ls.add("c2v_ms", ms(l.pub.publishedAt.Sub(t0)))
	l.ls.add("stream.sweep_ms", ms(sweepSelf))
	l.checkGroups(c, "sweep", res)

	if w.refreshEvery > 0 && c%w.refreshEvery == w.refreshEvery-1 {
		l.refresh(cs, c)
	}
	tDone := time.Now()
	l.tr.close(cs, tDone)
	l.ls.add("cycle_ms", ms(tDone.Sub(t0)))
	l.pub.parent, l.pub.cycle = -1, -1 // publishes outside a cycle are roots

	if l.tr != nil {
		l.ls.add("stream.dirty_users", float64(distinctUsers(tick)))
		deltaUS, patchUS := l.feedMirror(c, tick)
		if replay {
			l.replay(c, graphOf(l.det), sweepSelf, deltaUS+patchUS)
		}
	}
}

func (l *lapState) checkGroups(c int, what string, res *Result) {
	if l.w.wantGroups > 0 && len(res.Groups) != l.w.wantGroups {
		l.h.mismatch("cycle %d: %s returned %d groups, want %d", c, what, len(res.Groups), l.w.wantGroups)
	}
}

// refresh is the exact path on the same state: FullDetectContext, then the
// compile and publish cmd/serve -resweep does with its result.
func (l *lapState) refresh(parent, c int) *Result {
	t0 := time.Now()
	fs := l.tr.open("stream.full_refresh", parent, c, t0)
	res, err := fullDetectCtx(l.ctx, l.det)
	t1 := time.Now()
	l.h.attempted++
	if err != nil || res == nil || res.Partial {
		l.h.mismatch("cycle %d: full refresh failed: %v", c, err)
		l.tr.close(fs, t1)
		return nil
	}
	l.tr.record("stream.full_detect", fs, c, t0, t1)
	l.pub.parent, l.pub.cycle = fs, c
	l.pub.publish(res, graphOf(l.det))
	l.tr.close(fs, l.pub.publishedAt)
	l.ls.add("stream.full_detect_ms", ms(t1.Sub(t0)))
	l.ls.add("full_refresh_ms", ms(l.pub.publishedAt.Sub(t0)))
	l.checkGroups(c, "full refresh", res)
	return res
}

func distinctUsers(tick []Record) int {
	seen := make(map[uint32]struct{}, len(tick))
	for _, r := range tick {
		seen[r.UserID] = struct{}{}
	}
	return len(seen)
}

// closingRefresh ends a memory-only lap with a full refresh and holds the
// served epoch against the batch detector run on the aggregated full table.
func (l *lapState) closingRefresh() (*Result, error) {
	res := l.refresh(-1, -1)
	if res == nil {
		return nil, fmt.Errorf("closing refresh failed")
	}
	served := indexGroups(l.store.Current())
	l.h.attempted++
	if !sameGroups(served, res.Groups) {
		l.h.mismatch("served epoch differs from the refresh that was published")
	}
	if !l.w.oracleGate {
		return res, nil
	}
	table := newTable(len(l.in.prime))
	for _, r := range l.in.prime {
		table.AppendRecord(r)
	}
	for _, tick := range l.in.ticks {
		for _, r := range tick {
			table.AppendRecord(r)
		}
	}
	want, err := batchDetect(l.ctx, table.Aggregate().ToGraph(), l.in.params, nil)
	if err != nil {
		return nil, fmt.Errorf("oracle detection: %w", err)
	}
	l.h.attempted++
	if !sameGroups(served, want.Groups) {
		l.h.mismatch("served epoch (%d groups) differs from the batch detector on the aggregated table (%d groups)", len(served), len(want.Groups))
	}
	return res, nil
}

// crashAndRecover ends a durable lap: half a tick is ingested and left
// un-swept, the WAL is closed, and recovery (Open → sweep → compile →
// publish) is timed on fresh copies of the state directory. The detector
// that did not crash takes the same sweep in memory and is the reference.
func (l *lapState) crashAndRecover(walDir string) (*Result, error) {
	h, in := l.h, l.in
	l.ingest(in.tail, -1, -1)
	if err := l.buf.Close(l.ctx); err != nil {
		return nil, fmt.Errorf("buffer close: %w", err)
	}
	accepted, shed := l.buf.Stats()
	h.attempted++
	if shed != 0 {
		h.mismatch("%d clicks shed under the block policy", shed)
	}
	h.count["durable.wal_bytes"] = float64(dirBytes(walDir))
	if err := l.det.Close(); err != nil {
		return nil, fmt.Errorf("closing the WAL: %w", err)
	}
	copies := make([]string, scaled(bulkRecoveries, h.cfg.Scale, 2))
	for i := range copies {
		dir, err := tempDir(h.cfg.OutDir, "crash-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if err := copyDir(walDir, dir); err != nil {
			return nil, err
		}
		copies[i] = dir
	}
	want, err := sweepCtx(l.ctx, l.det)
	if err != nil || want.Partial {
		return nil, fmt.Errorf("reference sweep after the crash point: %v", err)
	}
	tSnap := time.Now()
	if err := l.det.Snapshot(); err != nil {
		h.mismatch("snapshot: %v", err)
	}
	l.ls.add("durable.snapshot_ms", ms(time.Since(tSnap)))

	for _, dir := range copies {
		store := newStore(nil)
		pub := &publisher{store: store, params: in.params, ls: samples{}, parent: -1, cycle: -1}
		t0 := time.Now()
		det, info, err := openDurable(dir, in.snapshotEvery, in.params, nil)
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		tOpen := time.Now()
		setOnCommit(det, pub.publish)
		got, err := sweepCtx(l.ctx, det)
		h.attempted += 2
		switch {
		case err != nil || got.Partial:
			h.mismatch("first sweep after recovery failed: %v", err)
		case uint64(eventsOf(det)) != accepted:
			h.mismatch("recovered %d click events, the buffer accepted %d", eventsOf(det), accepted)
		case !sameGroups(got.Groups, want.Groups) || !sameGroups(indexGroups(store.Current()), want.Groups):
			h.mismatch("first sweep after recovery differs from the same sweep on the detector that did not crash")
		}
		l.ls.add("recover_ms", ms(pub.publishedAt.Sub(t0)))
		l.ls.add("durable.open_ms", ms(tOpen.Sub(t0)))
		l.ls.add("durable.replayed_records", float64(info.replayed))
		if err := det.Close(); err != nil {
			h.mismatch("closing the recovered WAL: %v", err)
		}
	}
	return want, nil
}

// feedMirror keeps the mirror table in step with the detector and times the
// graph-prep leg the detector just ran on its own copy: Delta + PatchGraph,
// or Compact + ToGraph when the pending tail outgrew the base.
func (l *lapState) feedMirror(c int, tick []Record) (deltaUS, patchUS float64) {
	t0 := time.Now()
	ms0 := l.tr.open("mirror", -1, c, t0)
	for _, r := range tick {
		l.mirror.AppendRecord(r)
	}
	t1 := time.Now()
	l.tr.record("clicktable.append", ms0, c, t0, t1)
	l.ls.add("clicktable.append_ns_per_row", float64(t1.Sub(t0).Nanoseconds())/float64(len(tick)))
	if float64(l.mirror.PendingLen()) <= defaultCompactFraction*float64(l.mirror.BaseLen()) {
		edges, rows := stagedDelta(l.mirror)
		t2 := time.Now()
		l.mirrorGraph = patchGraph(l.mirrorGraph, edges)
		l.mirror.MarkPatched()
		t3 := time.Now()
		l.tr.record("clicktable.delta", ms0, c, t1, t2)
		l.tr.record("bipartite.patch", ms0, c, t2, t3)
		deltaUS, patchUS = us(t2.Sub(t1)), us(t3.Sub(t2))
		l.ls.add("clicktable.delta_us", deltaUS)
		l.ls.add("clicktable.delta_rows", float64(rows))
		l.ls.add("bipartite.patch_us", patchUS)
	} else {
		l.mirror.Compact()
		t2 := time.Now()
		l.mirrorGraph = l.mirror.Base().ToGraph()
		t3 := time.Now()
		l.tr.record("clicktable.compact", ms0, c, t1, t2)
		l.tr.record("bipartite.rebuild", ms0, c, t2, t3)
		l.ls.add("clicktable.compact_ms", ms(t2.Sub(t1)))
		l.ls.add("bipartite.rebuild_ms", ms(t3.Sub(t2)))
	}
	l.tr.close(ms0, time.Now())
	return deltaUS, patchUS
}

// replay feeds the graph snapshot the sweep just examined through the layer
// calls one at a time. graphPrepUS is what the mirror measured for this
// cycle's delta; together with the hot-set and screening replays it is the
// part of the sweep's self time the outside view can attribute, and the
// rest (seed filter, dirty-region expansion, the scoped extraction, lock
// wait) is reported as unattributed.
func (l *lapState) replay(c int, g *Graph, sweepSelf time.Duration, graphPrepUS float64) {
	screenUS, hotUS, err := replayLayers(l.ctx, l.tr, l.ls, c, g, l.in.params)
	if err != nil {
		l.h.mismatch("cycle %d: layer replay: %v", c, err)
		return
	}
	attributed := graphPrepUS + hotUS + screenUS
	if self := us(sweepSelf); self > 0 {
		share := (self - attributed) / self
		if share < 0 {
			share = 0
		}
		l.ls.add("stream.sweep_unattributed_share", share)
	}
}

// replayLayers is the replay subtree shared with batch_detect.
func replayLayers(ctx context.Context, tr *tracer, ls samples, c int, g *Graph, p Params) (screenUS, hotUS float64, err error) {
	root := tr.open("replay", -1, c, time.Now())
	defer func() { tr.close(root, time.Now()) }()
	timed := func(name string, fn func()) time.Duration {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		tr.record(name, root, c, t0, t1)
		return t1.Sub(t0)
	}
	var hot *HotSet
	hotUS = us(timed("core.hotset", func() { hot = computeHotSet(g, p) }))
	ls.add("core.hotset_us", hotUS)

	var work *Graph
	ls.add("core.clone_us", us(timed("core.clone", func() { work = cloneGraph(g) })))
	before := liveNodes(work)
	var removed, rounds int
	ls.add("core.prune_ms", ms(timed("core.prune", func() { removed, rounds, err = pruneCtx(ctx, work, p) })))
	if err != nil {
		return 0, 0, fmt.Errorf("PruneCtx: %w", err)
	}
	if before > 0 {
		ls.add("core.prune_removed_share", float64(removed)/float64(before))
	}
	ls.add("core.prune_rounds", float64(rounds))

	residual := cloneGraph(g)
	timed("harness.core_peel", func() { corePeel(residual, p) })
	var comps []Component
	ls.add("bipartite.components_us", us(timed("bipartite.components", func() { comps = connectedComponents(residual) })))
	ls.add("bipartite.compact_components_us", us(timed("bipartite.compact_components", func() { compactComponents(residual, comps) })))
	ls.add("bipartite.residual_components", float64(len(comps)))
	if n := liveNodes(residual); n > 0 {
		ls.add("bipartite.largest_component_share", float64(comps[0].Size())/float64(n))
	}

	work = cloneGraph(g)
	var groups []Group
	ls.add("core.extract_ms", ms(timed("core.extract", func() { groups, err = extractCtx(ctx, work, p) })))
	if err != nil {
		return 0, 0, fmt.Errorf("NearBicliqueExtractCtx: %w", err)
	}
	ls.add("core.groups_out", float64(len(groups)))
	var screened []Group
	screenUS = us(timed("core.screen", func() { screened, err = screenCtx(ctx, g, groups, hot, p) }))
	if err != nil {
		return 0, 0, fmt.Errorf("ScreenGroupsCtx: %w", err)
	}
	ls.add("core.screen_us", screenUS)
	ls.add("core.rank_us", us(timed("core.rank", func() { rankResult(g, &Result{Groups: screened}) })))
	return screenUS, hotUS, nil
}

func tempDir(outDir, pattern string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(outDir)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, pattern+"*")
}
