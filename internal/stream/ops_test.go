package stream

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

// This file is the stream detector's one equivalence driver. A test is a
// schedule of ops — feed, mid-sweep feed, sweep, a sweep cancelled at a fault
// site, refresh, snapshot, mid-sweep snapshot, crash-and-recover, /v1/check
// query — and after every op the driver holds the detector under test to:
//   - a twin fed the same clicks, the rebuild oracle (feedRebuildOracle) or a
//     memory-only detector that never refreshes, which must build the same
//     graph, sweep byte-identical groups and answer /v1/check
//     byte-identically; with reopen, also a copy opened from the detector's
//     WAL directory, which must hold its durable state;
//   - a model derived from the schedule alone: Events() counts the non-zero
//     clicks accepted, the record clock is that count plus the committed
//     sweeps, the dirty map holds each user's newest click seq where it is
//     above the last commit's startSeq, and a first sweep and every refresh
//     equal core.Detector.DetectContext on the graph of the clicks accepted
//     so far, scores, statistics and rankings included.
//
// An incremental sweep has no model: it is checked against twins only, so a
// fault all twins share there passes (ROADMAP item 4).

// opRun drives one schedule.
type opRun struct {
	t      *testing.T
	params core.Params
	d      *Detector
	dur    Durability // d's; a zero Dir is memory-only
	store  *serve.Store
	// twin is the rebuild oracle when rebuild is set, else a memory-only
	// detector; it never refreshes.
	twin      *Detector
	twinStore *serve.Store
	rebuild   bool
	reopen    bool // compare d with a copy reopened from dur.Dir after every op
	// res and twinRes are the committed results the stores serve; late are
	// clicks fed to d mid-sweep, which the twin gets after its own sweep.
	res, twinRes *detect.Result
	late         []clicktable.Record

	// The model: the warm-start rows (the first warm of clicks), then every
	// click accepted; the record clock; committed sweeps; the last commit's
	// startSeq; each user's newest click seq.
	clicks         []clicktable.Record
	warm           int
	seq, lastStart uint64
	sweeps         int
	newest         map[bipartite.NodeID]uint64
	// model is the model's detection on the first modelN clicks, kept for
	// the next comparison over the same clicks.
	model  *detect.Result
	modelN int

	step int
	op   string
	// found and refreshed count the groups sweeps and refreshes returned, so
	// a schedule can tell it compared more than empty results.
	found, refreshed int
}

// newOpRun starts a schedule: d is durable in dur.Dir when that is set and
// starts from the table warm otherwise; the twin starts from warm. Each
// publishes its commits into its own store.
func newOpRun(t *testing.T, params core.Params, dur Durability, warm *clicktable.Table, rebuild bool) *opRun {
	t.Helper()
	r := &opRun{t: t, params: params, dur: dur, rebuild: rebuild,
		store: serve.NewStore(nil), twinStore: serve.NewStore(nil), newest: map[bipartite.NodeID]uint64{}}
	var err, terr error
	if dur.Dir != "" {
		r.d, _, err = Open(dur, params, nil)
	} else {
		r.d, err = New(warm, params)
	}
	r.twin, terr = New(warm, params)
	if err != nil || terr != nil {
		t.Fatal(err, terr)
	}
	r.twin.Obs = obs.NewObserver("twin") // counts the rebuild oracle's patches, which must stay 0
	publishTo(r.d, r.store)
	publishTo(r.twin, r.twinStore)
	if warm != nil {
		warm.Each(func(c clicktable.Record) bool {
			r.clicks = append(r.clicks, c)
			return true
		})
		r.warm = len(r.clicks)
	}
	t.Cleanup(func() {
		if err := r.d.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return r
}

func (r *opRun) begin(op string) { r.step, r.op = r.step+1, op }

func (r *opRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("op %d (%s): %s", r.step, r.op, fmt.Sprintf(format, args...))
}

// feed streams recs into d, one AddClick each when single (the WAL's
// per-click path) and as one AddBatch otherwise, and into the twin.
func (r *opRun) feed(recs []clicktable.Record, single bool) {
	r.begin("feed")
	if single {
		for _, c := range recs {
			r.d.AddClick(c.UserID, c.ItemID, c.Clicks)
		}
	} else {
		r.d.AddBatch(recs)
	}
	r.feedTwin(recs)
	r.accept(recs)
	r.check()
}

func (r *opRun) feedTwin(recs []clicktable.Record) {
	if r.rebuild {
		feedRebuildOracle(r.twin, recs)
	} else {
		r.twin.AddBatch(recs)
	}
}

// accept is the model's ingest: a non-zero click ticks the record clock and
// stamps its user.
func (r *opRun) accept(recs []clicktable.Record) {
	for _, c := range recs {
		if c.Clicks > 0 {
			r.seq++
			r.newest[c.UserID] = r.seq
			r.clicks = append(r.clicks, c)
		}
	}
}

func (r *opRun) sweep() *detect.Result { return r.committed(r.sweepAt(context.Background(), "", nil)) }

func (r *opRun) committed(res *detect.Result, err error) *detect.Result {
	if err != nil {
		r.fatalf("the sweep aborted: %v", err)
	}
	return res
}

// sweepAt sweeps d under ctx with do armed once at fault site (none when site
// is ""). A commit is the twin's cue to sweep: both must return the same
// groups and serve the same answers, and a first sweep must equal the
// model's detection. It returns d's result, or nil and the error of a sweep
// that aborted.
func (r *opRun) sweepAt(ctx context.Context, site string, do func()) (*detect.Result, error) {
	r.begin("sweep")
	start, n, first := r.seq, len(r.clicks), r.sweeps == 0
	if site != "" {
		faultinject.Arm(site, faultinject.Fault{Do: do, Times: 1})
	}
	res, err := r.d.SweepContext(ctx)
	faultinject.Reset()
	if err != nil {
		if !res.Partial {
			r.fatalf("a failed sweep returned a complete result: %v", err)
		}
		res = nil
	} else {
		r.seq, r.sweeps, r.lastStart = r.seq+1, r.sweeps+1, start
		r.res, r.twinRes = res, mustSweep(r.t, r.twin)
		if !bytes.Equal(groupBytes(r.twinRes.Groups), groupBytes(res.Groups)) {
			r.fatalf("swept %d groups, the twin %d (serialized forms differ)", len(res.Groups), len(r.twinRes.Groups))
		}
		if first {
			r.sameAsModel(res, n)
		}
		r.found += len(res.Groups)
	}
	r.feedTwin(r.late)
	r.late = nil
	r.check()
	if res != nil {
		r.sameAnswers()
	}
	return res, err
}

// midSweepFeed feeds recs to d inside its sweep, after the sweep took its
// graph, so they must land in the next sweep.
func (r *opRun) midSweepFeed(recs []clicktable.Record) *detect.Result {
	return r.committed(r.sweepAt(context.Background(), "stream.sweep", func() {
		r.d.AddBatch(recs)
		r.accept(recs)
		r.late = recs
	}))
}

// cancelledSweep cancels d's sweep at fault site and returns its error; a
// sweep that does not pass the site commits and returns nil.
func (r *opRun) cancelledSweep(site string) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := r.sweepAt(ctx, site, cancel)
	return err
}

// midSweepSnapshot snapshots d inside its sweep; kill then aborts the sweep,
// so the snapshot alone must carry the users the sweep had borrowed.
func (r *opRun) midSweepSnapshot(kill bool) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var err error
	r.sweepAt(ctx, "stream.sweep", func() {
		if err = r.d.Snapshot(); kill {
			cancel()
		}
	})
	if err != nil {
		r.fatalf("mid-sweep snapshot: %v", err)
	}
}

func (r *opRun) snapshot() {
	r.begin("snapshot")
	if err := r.d.Snapshot(); err != nil {
		r.fatalf("%v", err)
	}
	r.check()
}

// refresh runs d's FullDetectContext, which must equal the model's detection
// and publish nothing; the twin never refreshes, so later sweeps show it
// changed nothing else.
func (r *opRun) refresh() *detect.Result {
	r.begin("refresh")
	epoch := r.store.Epoch()
	res, err := fullDetect(r.d)
	if err != nil {
		r.fatalf("%v", err)
	}
	r.sameAsModel(res, len(r.clicks))
	if e := r.store.Epoch(); e != epoch {
		r.fatalf("the refresh published epoch %d", e)
	}
	r.refreshed += len(res.Groups)
	r.check()
	return res
}

// crash abandons d with its WAL open, as a killed process leaves it, and
// reopens the directory. The store is the serving side and outlives the
// crash: the recovered detector's commits continue its epochs.
func (r *opRun) crash() *RecoveryInfo {
	r.begin("crash")
	d, info, err := Open(r.dur, r.params, nil)
	if err != nil {
		r.fatalf("%v", err)
	}
	if info.ColdStart != (r.seq == 0) {
		r.fatalf("recovery reports ColdStart=%v at record clock %d", info.ColdStart, r.seq)
	}
	d.compactFraction, d.OnCommit = r.d.compactFraction, r.d.OnCommit
	r.d = d
	r.check()
	return info
}

func (r *opRun) query() {
	r.begin("query")
	r.sameAnswers()
	r.check()
}

// sameAsModel requires res to equal core.Detector.DetectContext on the graph
// of the first n clicks the model accepted.
func (r *opRun) sameAsModel(res *detect.Result, n int) {
	r.t.Helper()
	if r.model == nil || r.modelN != n {
		table := clicktable.New(n)
		for _, c := range r.clicks[:n] {
			table.AppendRecord(c)
		}
		var err error
		if r.model, err = (&core.Detector{Params: r.params}).DetectContext(context.Background(), table.ToGraph()); err != nil {
			r.fatalf("model detection: %v", err)
		}
		r.modelN = n
	}
	if !bytes.Equal(resultBytes(r.t, r.model), resultBytes(r.t, res)) {
		r.fatalf("found %d groups, the model's detection %d (serialized forms differ)", len(res.Groups), len(r.model.Groups))
	}
}

// sameAnswers asks both stores one /v1/check batch — every user and item a
// served result ranks, each group's first (user, item) pair, and ids no
// detection names — and requires byte-identical answers, epochs included.
func (r *opRun) sameAnswers() {
	r.t.Helper()
	body := []byte(`[{"kind":"user","id":0},{"kind":"item","id":0},{"kind":"user","id":4294967295}`)
	for _, res := range []*detect.Result{r.res, r.twinRes} {
		if res == nil {
			continue
		}
		for _, s := range res.RankedUsers {
			body = fmt.Appendf(body, `,{"kind":"user","id":%d}`, s.ID)
		}
		for _, s := range res.RankedItems {
			body = fmt.Appendf(body, `,{"kind":"item","id":%d}`, s.ID)
		}
		for _, g := range res.Groups {
			body = fmt.Appendf(body, `,{"kind":"pair","user":%d,"item":%d}`, g.Users[0], g.Items[0])
		}
	}
	body = append(body, ']')
	answer := func(store *serve.Store) []byte {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body))
		serve.NewServer(store, serve.Options{}).ServeHTTP(rec, req)
		return fmt.Appendf(nil, "%d %s", rec.Code, rec.Body.Bytes())
	}
	if want, got := answer(r.twinStore), answer(r.store); !bytes.Equal(want, got) {
		r.fatalf("/v1/check answers diverged from the twin's:\n got  %.300s\n want %.300s", got, want)
	}
}

// check holds d to the model and to its twins; every op ends with it.
func (r *opRun) check() {
	r.t.Helper()
	st := stateOf(r.d)
	dirty := map[bipartite.NodeID]uint64{}
	for u, s := range r.newest {
		if s > r.lastStart {
			dirty[u] = s
		}
	}
	if st.seq != r.seq || st.events != len(r.clicks)-r.warm || st.detections != r.sweeps || !maps.Equal(st.dirty, dirty) {
		r.fatalf("state diverged from the model: seq=%d events=%d sweeps=%d dirty=%d, want %d %d %d %d",
			st.seq, st.events, st.detections, len(st.dirty), r.seq, len(r.clicks)-r.warm, r.sweeps, len(dirty))
	}
	if err := r.d.DurabilityErr(); err != nil {
		r.fatalf("WAL degraded: %v", err)
	}
	g := r.d.Graph()
	if !sameGraph(r.twin.Graph(), g) {
		r.fatalf("graph diverged from the twin's")
	}
	if n := r.twin.Obs.Counter("stream.graph.patch").Value(); r.rebuild && n != 0 {
		r.fatalf("the rebuild oracle patched its graph %d times", n)
	}
	if r.reopen {
		c := reopenCopy(r.t, r.d, r.dur)
		defer c.Close()
		if !reflect.DeepEqual(stateOf(c), st) {
			r.fatalf("a copy reopened from the WAL directory diverged from the live detector")
		}
	}
}

// sameGraph compares two graphs a stream detector built — which never lose
// a vertex, so every arc is live — by dimensions, counts and rows.
func sameGraph(a, b *bipartite.Graph) bool {
	if a.NumUsers() != b.NumUsers() || a.NumItems() != b.NumItems() ||
		a.LiveUsers() != b.LiveUsers() || a.LiveEdges() != b.LiveEdges() {
		return false
	}
	for u := bipartite.NodeID(0); int(u) < a.NumUsers(); u++ {
		if !slices.Equal(a.UserArcs(u), b.UserArcs(u)) {
			return false
		}
	}
	return true
}

// logState is the durable part of a detector's state.
type logState struct {
	seq        uint64
	events     int
	detections int
	carried    []byte
	dirty      map[bipartite.NodeID]uint64
}

func stateOf(d *Detector) logState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return logState{seq: d.seq, events: d.events, detections: d.detections,
		carried: groupBytes(d.cached), dirty: maps.Clone(d.dirty)}
}

// reopenCopy opens a second detector from a copy of live's WAL directory,
// the way a process restarted after kill -9 would find it.
func reopenCopy(t *testing.T, live *Detector, dur Durability) *Detector {
	t.Helper()
	src := dur.Dir
	dur.Dir = t.TempDir()
	entries, err := os.ReadDir(src)
	for _, e := range entries {
		var b []byte
		if b, err = os.ReadFile(filepath.Join(src, e.Name())); err == nil {
			err = os.WriteFile(filepath.Join(dur.Dir, e.Name()), b, 0o644)
		}
		if err != nil {
			break
		}
	}
	d, _, oerr := Open(dur, live.params, nil)
	if err != nil || oerr != nil {
		t.Fatalf("reopen copy: %v %v", err, oerr)
	}
	return d
}

// feedRebuildOracle ingests records into a graph-build oracle and forgets its
// built graph, so that its next build — whichever call triggers it —
// re-aggregates the whole click history and rebuilds from scratch (the
// compaction branch of graphLocked) instead of patching.
func feedRebuildOracle(oracle *Detector, records []clicktable.Record) {
	oracle.AddBatch(records)
	oracle.mu.Lock()
	oracle.graph = nil
	oracle.mu.Unlock()
}

// publishTo wires d's commits into store, as cmd/stream does.
func publishTo(d *Detector, store *serve.Store) {
	thot, tclick := d.params.THot, d.params.TClick
	d.OnCommit = func(res *detect.Result, g *bipartite.Graph) {
		_ = store.Publish(serve.Compile(g, res, thot, tclick))
	}
}

// equivCorpus is the shared seeded workload corpus (synth.EquivCorpus):
// varied small marketplaces plus tiny shattered-residual ones, several of
// which detect nothing, so patching pure background churn is covered.
func equivCorpus(t *testing.T) []synth.Config {
	cfgs := synth.EquivCorpus()
	if len(cfgs) < 20 {
		t.Fatalf("corpus has %d workloads, want ≥ 20", len(cfgs))
	}
	return cfgs
}

func deltaEquivParams(c synth.Config) core.Params {
	p := smallParams()
	if c.NumUsers < 1000 {
		p.THot = 200
	}
	return p
}

// workloadClicks generates cfg and returns its background, as a table and
// as clicks, and the two halves of its attack.
func workloadClicks(cfg synth.Config) (background *clicktable.Table, bg, phaseA, phaseB []clicktable.Record) {
	background, attack := splitDataset(synth.MustGenerate(cfg))
	background.Each(func(c clicktable.Record) bool {
		bg = append(bg, c)
		return true
	})
	return background, bg, attack[:len(attack)/2], attack[len(attack)/2:]
}

// TestDeltaEquivalenceGoldenWorkloads: over the corpus, a detector that
// patches each sweep's click delta onto its previous graph builds, sweeps
// and serves what the rebuild oracle does, through background, first and
// second attack half with a sweep after each. The workload index picks the
// hostile extras:
//   - i%3 selects the compaction regime (always / never / default), so
//     compaction boundaries and long patch chains are both covered;
//   - i%3 == 0 feeds clicks mid-sweep (they land in the next sweep);
//   - i%4 == 1 runs the detector durably and crash-recovers it between
//     sweeps 2 and 3: the recovered detector re-derives the patched graph.
func TestDeltaEquivalenceGoldenWorkloads(t *testing.T) {
	defer faultinject.Reset()
	found := 0
	for i, cfg := range equivCorpus(t) {
		t.Run(fmt.Sprintf("workload%02d", i), func(t *testing.T) {
			_, bg, phaseA, phaseB := workloadClicks(cfg)
			var dur Durability
			if i%4 == 1 {
				dur = Durability{Dir: t.TempDir(), SnapshotEvery: 150, SegmentBytes: 1 << 16}
			}
			r := newOpRun(t, deltaEquivParams(cfg), dur, nil, true)
			r.d.compactFraction = []float64{1e-9, 1e9, 0}[i%3]
			r.feed(bg, false)
			if i%3 == 0 {
				r.midSweepFeed(phaseA[:min(8, len(phaseA))])
			} else {
				r.sweep()
			}
			r.feed(phaseA, false)
			r.sweep()
			if dur.Dir != "" {
				r.crash()
				r.query()
			}
			r.feed(phaseB, false)
			r.sweep()
			found += r.found
		})
	}
	if found == 0 {
		t.Fatal("corpus detected no groups anywhere — the harness exercised only the all-clean path")
	}
}

// TestRecoveryEquivalenceGoldenWorkloads: a durable detector crashed and
// recovered at two points of the same three-phase stream sweeps, serves and
// holds what the rebuild oracle and the model do. Phase A arrives half by
// batch, half click by click (both WAL paths); the mid-phase-3 crash follows
// a snapshot taken with half of phase B dirty and replays the other half.
func TestRecoveryEquivalenceGoldenWorkloads(t *testing.T) {
	for i := range 4 {
		cfg := synth.SmallConfig()
		cfg.Seed, cfg.Attack.Groups = int64(i+1), 1+(i+1)%3
		_, bg, phaseA, phaseB := workloadClicks(cfg)
		for _, crashPoint := range []string{"after-sweep-2", "mid-phase-3"} {
			t.Run(fmt.Sprintf("workload%02d/%s", i, crashPoint), func(t *testing.T) {
				// Small snapshot cadence and segments, so recovery exercises
				// snapshot + tail replay and segment rotation.
				dur := Durability{Dir: t.TempDir(), SnapshotEvery: 200, SegmentBytes: 1 << 16}
				r := newOpRun(t, smallParams(), dur, nil, true)
				r.feed(bg, false)
				r.sweep()
				r.feed(phaseA[:len(phaseA)/2], false)
				r.feed(phaseA[len(phaseA)/2:], true)
				r.sweep()
				if crashPoint == "mid-phase-3" {
					r.feed(phaseB[:len(phaseB)/2], false)
					r.snapshot()
					r.feed(phaseB[len(phaseB)/2:], false)
				}
				r.crash()
				r.query()
				if crashPoint == "after-sweep-2" {
					r.feed(phaseB, false)
				}
				r.sweep()
			})
		}
	}
}

// TestRefreshEquivalenceGoldenWorkloads: a refresh keeps nothing between
// calls and leaves the sweep state alone. Per workload: background, sweep,
// two refreshes, phase A, refresh, sweep, then a single-click merge (a
// TClick-weight bridge between two detected groups) and split (a click
// pushing a group item over THot), each refreshed and swept, then phase B,
// refresh, sweep. Every refresh must equal the model's detection and publish
// nothing; the twin never refreshes, so every sweep checks that a refresh
// committed nothing. Hostile extras: i%3 == 0 feeds clicks mid-sweep,
// i%4 == 1 is durable and crash-recovers before phase B, and i%5 == 0 ends
// with a quiet sweep and refresh.
func TestRefreshEquivalenceGoldenWorkloads(t *testing.T) {
	defer faultinject.Reset()
	found, refreshed := 0, 0
	for i, cfg := range equivCorpus(t) {
		t.Run(fmt.Sprintf("workload%02d", i), func(t *testing.T) {
			params := deltaEquivParams(cfg)
			_, bg, phaseA, phaseB := workloadClicks(cfg)
			var dur Durability
			if i%4 == 1 {
				dur = Durability{Dir: t.TempDir(), SnapshotEvery: 150, SegmentBytes: 1 << 16}
			}
			r := newOpRun(t, params, dur, nil, false)
			r.feed(bg, false)
			if i%3 == 0 {
				r.midSweepFeed(phaseA[:min(8, len(phaseA))])
			} else {
				r.sweep()
			}
			r.refresh()
			r.refresh()
			r.feed(phaseA, false)
			r.refresh()
			r3 := r.sweep()
			if len(r3.Groups) >= 2 {
				g0, g1 := r3.Groups[0], r3.Groups[1]
				r.feed([]clicktable.Record{{UserID: g0.Users[0], ItemID: g1.Items[0], Clicks: params.TClick}}, true)
				r.refresh()
				r.sweep()
			}
			if len(r3.Groups) >= 1 {
				r.feed([]clicktable.Record{{UserID: 0, ItemID: r3.Groups[0].Items[0], Clicks: uint32(params.THot) + 1}}, true)
				r.refresh()
				r.sweep()
			}
			if dur.Dir != "" {
				r.crash()
				r.refresh()
			}
			r.feed(phaseB, false)
			r.refresh()
			r.sweep()
			if i%5 == 0 {
				r.sweep()
				r.refresh()
			}
			found, refreshed = found+r.found, refreshed+r.refreshed
		})
	}
	if found == 0 || refreshed == 0 {
		t.Fatalf("sweeps found %d groups and refreshes %d — the comparisons were all empty", found, refreshed)
	}
}

// TestRefreshesLeaveSweepsAlone: over the corpus — warm-started (i%3 == 0),
// cold, and durable through a crash (i%3 == 2) — a detector that refreshes
// twice with the attack's clicks pending sweeps what a twin that never
// refreshes does, and CacheStats stays zero.
func TestRefreshesLeaveSweepsAlone(t *testing.T) {
	refreshed := 0
	for i, cfg := range synth.EquivCorpus() {
		t.Run(fmt.Sprintf("workload%02d", i), func(t *testing.T) {
			background, bg, phaseA, phaseB := workloadClicks(cfg)
			var dur Durability
			var warm *clicktable.Table
			switch i % 3 {
			case 0: // the first sweep is full with an empty dirty set
				warm = background
			case 2:
				dur = Durability{Dir: t.TempDir(), SnapshotEvery: 150, SegmentBytes: 1 << 16}
			}
			r := newOpRun(t, deltaEquivParams(cfg), dur, warm, false)
			if warm == nil {
				r.feed(bg, false)
			}
			r.sweep()
			r.feed(phaseA, false)
			r.refresh()
			r.refresh()
			r.sweep()
			r.sweep() // quiet
			if dur.Dir != "" {
				r.crash()
			}
			r.feed(phaseB, false)
			r.sweep()
			if st := r.d.CacheStats(); st != (CacheStats{}) {
				t.Fatalf("CacheStats moved: %+v", st)
			}
			refreshed += r.refreshed
		})
	}
	if refreshed == 0 {
		t.Fatal("no refresh anywhere found a group — the harness never ran a detection worth disturbing")
	}
}

// Ops of FuzzLiveStateEqualsReplayedState, one per schedule byte (op =
// byte % numOps; the byte's high bits size batches and pick fault sites).
const (
	opFeed = iota
	opSweep
	opCancelledSweep
	opMidSweepFeed
	opMidSweepSnapshot
	opSnapshot
	opCrash
	opRefresh
	opQuery
	numOps
)

// cancelSites are the fault sites a sweep passes through outside the lock.
var cancelSites = []string{"stream.sweep", "core.prune.round", "core.shard", "core.frontier", "core.extract", "core.screen.group"}

// logWorkloads are the corpus workloads as click sequences (background, then
// the attack), generated once per process.
var logWorkloads = sync.OnceValue(func() (out [][]clicktable.Record) {
	for _, cfg := range synth.EquivCorpus() {
		_, bg, phaseA, phaseB := workloadClicks(cfg)
		out = append(out, append(append(bg, phaseA...), phaseB...))
	}
	return out
})

// FuzzLiveStateEqualsReplayedState drives a durable detector and a
// memory-only twin through a schedule of ops, and after EVERY op also reopens
// a copy of the detector's directory, which must hold its state. Seeds: one
// schedule per corpus workload.
func FuzzLiveStateEqualsReplayedState(f *testing.F) {
	for i := range synth.EquivCorpus() {
		rng := rand.New(rand.NewSource(int64(i)))
		ops := []byte{opFeed + 3*numOps, opSweep} // most of the background, then the first (full) sweep
		for _, op := range rng.Perm(numOps) {     // then every op once, in a seeded order with seeded arguments
			ops = append(ops, byte(op+numOps*rng.Intn(256/numOps)))
		}
		ops = append(ops, opFeed+numOps, opSweep)
		f.Add(uint8(i), ops)
	}
	f.Fuzz(func(t *testing.T, workload uint8, ops []byte) {
		defer faultinject.Reset()
		corpus := synth.EquivCorpus()
		wi := int(workload) % len(corpus)
		pending := logWorkloads()[wi]
		take := func(n int) []clicktable.Record {
			n = min(n, len(pending))
			batch := pending[:n]
			pending = pending[n:]
			return batch
		}
		r := newOpRun(t, deltaEquivParams(corpus[wi]), Durability{Dir: t.TempDir(), SnapshotEvery: 150, SegmentBytes: 1 << 16}, nil, false)
		r.reopen = true
		for _, b := range ops[:min(len(ops), 24)] {
			switch op, arg := int(b)%numOps, int(b)/numOps; op {
			case opFeed:
				r.feed(take([]int{8, 64, 512, len(pending) * 3 / 4}[arg%4]), arg%4 == 0)
			case opSweep:
				r.sweep()
			case opCancelledSweep:
				r.cancelledSweep(cancelSites[arg%len(cancelSites)])
			case opMidSweepFeed:
				r.midSweepFeed(take(1 + arg%16))
			case opMidSweepSnapshot:
				r.midSweepSnapshot(arg%2 == 1)
			case opSnapshot:
				r.snapshot()
			case opCrash:
				r.crash()
			case opRefresh:
				r.refresh()
			case opQuery:
				r.query()
			}
		}
	})
}
