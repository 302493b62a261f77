package stream

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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

// This file is the stream detector's one equivalence driver and its one
// serving harness. A test is a schedule of ops — feed, mid-sweep feed, sweep,
// a sweep cancelled at a fault site, refresh, snapshot, mid-sweep snapshot,
// crash-and-recover, /v1/check query — and after every op the driver holds
// the detector under test to:
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
//     so far, taken as a multiset, scores, statistics and rankings included;
//   - the same model on the serving side: the store serves one epoch per
//     committed sweep (503 before the first), and while the last commit was
//     exact, its user, item, pair, group and /v1/check answers are
//     byte-equal to the scan oracle (scanOracle) over the model's detection
//     on that commit's prefix.
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
	// res is the committed result the store serves; late are clicks fed to
	// d mid-sweep, which the twin gets after its own sweep.
	res  *detect.Result
	late []clicktable.Record

	// The model: the warm-start rows (the first warm of clicks), then every
	// click accepted; the record clock; committed sweeps; the last commit's
	// startSeq; each user's newest click seq.
	clicks         []clicktable.Record
	warm           int
	seq, lastStart uint64
	sweeps         int
	newest         map[bipartite.NodeID]uint64
	// model is the model's last detection, kept for the next comparison over
	// the same clicks; oracle is what the store must answer: 503 before the
	// first commit, then the scan oracle over the model's detection at the
	// last commit, or nothing while that commit was not exact.
	model      *modelDetection
	oracle     []oracleAnswer
	oracleHeld bool // the store gave every oracle answer since the commit

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
		store: serve.NewStore(nil), twinStore: serve.NewStore(nil), newest: map[bipartite.NodeID]uint64{},
		oracle: []oracleAnswer{{http.MethodGet, "/v1/user/0", nil, http.StatusServiceUnavailable, nil, true}}} // until the first commit
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
		r.res = res
		if twin := mustSweep(r.t, r.twin); !bytes.Equal(groupBytes(twin.Groups), groupBytes(res.Groups)) {
			r.fatalf("swept %d groups, the twin %d (serialized forms differ)", len(res.Groups), len(twin.Groups))
		}
		// Only a full sweep is exact; a seeded one is held to the twins alone
		// until ROADMAP item 4 makes every commit exact.
		exact := first
		r.oracle = nil
		if exact {
			r.sameAsModel(res, n)
			r.oracle, r.oracleHeld = scanOracle(r.t, r.model, uint64(r.sweeps)), false
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

// modelDetection is core.Detector.DetectContext on the graph of the first n
// clicks the model accepted, and that graph's dimensions.
type modelDetection struct {
	res          *detect.Result
	n            int
	users, items int
}

// sameAsModel requires res to equal the model's detection on the first n
// clicks. The model takes them as a multiset: it aggregates them in (user,
// item) order, whatever order the detector was fed them in.
func (r *opRun) sameAsModel(res *detect.Result, n int) {
	r.t.Helper()
	if r.model == nil || r.model.n != n {
		clicks := slices.Clone(r.clicks[:n])
		slices.SortStableFunc(clicks, func(a, b clicktable.Record) int {
			return cmp.Or(cmp.Compare(a.UserID, b.UserID), cmp.Compare(a.ItemID, b.ItemID))
		})
		table := clicktable.New(n)
		for _, c := range clicks {
			table.AppendRecord(c)
		}
		g := table.ToGraph()
		m, err := (&core.Detector{Params: r.params}).DetectContext(context.Background(), g)
		if err != nil {
			r.fatalf("model detection: %v", err)
		}
		r.model = &modelDetection{res: m, n: n, users: g.NumUsers(), items: g.NumItems()}
	}
	if !bytes.Equal(resultBytes(r.t, r.model.res), resultBytes(r.t, res)) {
		r.fatalf("found %d groups, the model's detection %d (serialized forms differ)", len(res.Groups), len(r.model.res.Groups))
	}
}

// scanGroups is the scan oracle's membership: the 1-based positions of the
// groups of res holding the user (when user ≥ 0) and the item (when item ≥
// 0). It shares no code with serve.Build.
func scanGroups(res *detect.Result, user, item int64) []int {
	var in []int
	for gi, g := range res.Groups {
		if (user < 0 || slices.Contains(g.Users, uint32(user))) && (item < 0 || slices.Contains(g.Items, uint32(item))) {
			in = append(in, gi+1)
		}
	}
	return in
}

// oracleNode is the scan oracle's answer for a user or item: suspicious when
// a group holds it or the ranking lists it, scored by the ranking.
func oracleNode(res *detect.Result, kind string, id uint32, epoch uint64) serve.NodeResponse {
	ranked, groups := res.RankedUsers, scanGroups(res, int64(id), -1)
	if kind == "item" {
		ranked, groups = res.RankedItems, scanGroups(res, -1, int64(id))
	}
	v := serve.NodeResponse{Kind: kind, ID: id, Suspicious: len(groups) > 0, Groups: groups, Epoch: epoch}
	if i := slices.IndexFunc(ranked, func(s detect.Scored) bool { return s.ID == id }); i >= 0 {
		v.Suspicious, v.Score = true, ranked[i].Score
	}
	return v
}

// request serves one request and returns its status and body.
func request(h http.Handler, method, target string, body []byte) (int, []byte) {
	path, query, _ := strings.Cut(target, "?")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, &http.Request{Method: method, URL: &url.URL{Path: path, RawQuery: query}, Body: io.NopCloser(bytes.NewReader(body))})
	return rec.Code, rec.Body.Bytes()
}

// oracleAnswer is a request and the status and body the scan oracle gives
// it; a nil want leaves the body unchecked. An answer marked everyOp is held
// after every op, the others after the commit.
type oracleAnswer struct {
	method, target string
	body           []byte
	code           int
	want           []byte
	everyOp        bool
}

// scanOracle answers, at epoch, every user and item of m's graph and 50 ids
// beyond it, in-group, cross-group and clean pairs, every group and the one
// past the last. After the commit it holds them all, nodes and pairs in one
// /v1/check batch; after every op, the groups and a batch of the named
// entries: nodes in a group or a ranking, id 0, the ids beyond the graph and
// the pairs. Each named entry is held through its endpoint too.
func scanOracle(t *testing.T, m *modelDetection, epoch uint64) []oracleAnswer {
	type entry struct {
		check, target string
		v             any
		named         bool
	}
	var entries []entry
	for _, side := range []struct {
		kind string
		n    int
	}{{"user", m.users}, {"item", m.items}} {
		for id := uint32(0); id < uint32(side.n)+50; id++ {
			v := oracleNode(m.res, side.kind, id, epoch)
			entries = append(entries, entry{fmt.Sprintf(`{"kind":%q,"id":%d}`, side.kind, id),
				fmt.Sprintf("/v1/%s/%d", side.kind, id), v, v.Suspicious || id == 0 || id >= uint32(side.n)})
		}
	}
	groups := m.res.Groups
	pairs := [][2]uint32{{0, 0}, {uint32(m.users) + 7, uint32(m.items) + 7}}
	for gi, g := range groups {
		pairs = append(pairs, [2]uint32{g.Users[0], g.Items[0]}, [2]uint32{g.Users[0], uint32(m.items) + 7})
		if gi > 0 {
			pairs = append(pairs, [2]uint32{groups[0].Users[0], g.Items[0]}, [2]uint32{g.Users[0], groups[0].Items[0]})
		}
	}
	for _, p := range pairs {
		v := serve.PairResponse{User: p[0], Item: p[1], Groups: scanGroups(m.res, int64(p[0]), int64(p[1])), Epoch: epoch}
		v.InGroup = len(v.Groups) > 0
		entries = append(entries, entry{fmt.Sprintf(`{"kind":"pair","user":%d,"item":%d}`, p[0], p[1]),
			fmt.Sprintf("/v1/pair?u=%d&i=%d", p[0], p[1]), v, true})
	}

	var out []oracleAnswer
	hold := func(method, target string, body []byte, v any, everyOp bool) {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracleAnswer{method, target, body, http.StatusOK, append(want, '\n'), everyOp})
	}
	for _, everyOp := range []bool{false, true} {
		var checks []string
		var answers []any
		for _, e := range entries {
			if e.named || !everyOp {
				checks, answers = append(checks, e.check), append(answers, e.v)
			}
		}
		hold(http.MethodPost, "/v1/check", []byte("["+strings.Join(checks, ",")+"]"), answers, everyOp)
	}
	for _, e := range entries {
		if e.named {
			hold(http.MethodGet, e.target, nil, e.v, false)
		}
	}
	for gi, g := range groups {
		hold(http.MethodGet, fmt.Sprintf("/v1/group/%d", gi+1), nil, serve.GroupResponse{Group: gi + 1, Users: g.Users, Items: g.Items,
			Score: g.Score, Density: g.Density, MeanEdgeClicks: g.MeanEdgeClicks, OutsideShare: g.OutsideShare, Epoch: epoch}, true)
	}
	return append(out, oracleAnswer{http.MethodGet, fmt.Sprintf("/v1/group/%d", len(groups)+1), nil, http.StatusNotFound, nil, true})
}

// servedAsModel holds the store to the model: it serves one epoch per
// committed sweep, and it gives the oracle's answers, every one after the
// commit and those marked everyOp after every op.
func (r *opRun) servedAsModel() {
	r.t.Helper()
	srv := serve.NewServer(r.store, serve.Options{})
	if e := r.store.Epoch(); e != uint64(r.sweeps) {
		r.fatalf("serving epoch %d after %d committed sweeps", e, r.sweeps)
	}
	for _, a := range r.oracle {
		if !a.everyOp && r.oracleHeld {
			continue
		}
		if code, got := request(srv, a.method, a.target, a.body); code != a.code || a.want != nil && !bytes.Equal(got, a.want) {
			r.fatalf("%s %s answered %d %.300s, the oracle %d %.300s", a.method, a.target, code, got, a.code, a.want)
		}
	}
	r.oracleHeld = true
}

// sameAnswers asks both stores one /v1/check batch — every user and item the
// served result ranks, each group's first (user, item) pair, and ids no
// detection names — and requires byte-identical answers, epochs included.
// The twin swept the same groups, so d's result names the twin's nodes too.
func (r *opRun) sameAnswers() {
	r.t.Helper()
	body := []byte(`[{"kind":"user","id":0},{"kind":"item","id":0},{"kind":"user","id":4294967295}`)
	if res := r.res; res != nil {
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
		code, got := request(serve.NewServer(store, serve.Options{}), http.MethodPost, "/v1/check", body)
		return fmt.Appendf(nil, "%d %s", code, got)
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
	r.servedAsModel()
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

// TestStreamOrderServesTheModelEpoch is the stream-order relation over the
// corpus: every workload's clicks, shuffled, arrive by batch and click by
// click, and the first sweep must serve the scan oracle over the model,
// which takes the clicks as a multiset. The workload index varies α and the
// size bounds, so the oracle sees several groups and none.
func TestStreamOrderServesTheModelEpoch(t *testing.T) {
	found := 0
	for i, cfg := range equivCorpus(t) {
		t.Run(fmt.Sprintf("workload%02d", i), func(t *testing.T) {
			p := deltaEquivParams(cfg)
			switch i % 3 {
			case 1:
				p.Alpha = 0.8
			case 2:
				p.K1, p.K2 = 8, 8
			}
			clicks := slices.Clone(logWorkloads()[i])
			rand.New(rand.NewSource(int64(i))).Shuffle(len(clicks), func(a, b int) { clicks[a], clicks[b] = clicks[b], clicks[a] })
			r := newOpRun(t, p, Durability{}, nil, false)
			r.feed(clicks[64:], false)
			r.feed(clicks[:64], true)
			r.sweep()
			found += r.found
		})
	}
	if found == 0 {
		t.Fatal("corpus detected no groups anywhere — the oracle held only all-clean epochs")
	}
}

// TestRowSplitServesTheModelEpoch is the row-splitting relation over the
// corpus: every row of c ≥ 2 clicks is split into 2–3 rows of positive
// counts summing to c, and part j of every row arrives in batch j (the last
// batch click by click on odd workloads). Every build after a batch patches
// (i%3 == 1) or re-aggregates (i%3 == 0) the parts onto the rows before
// them. The detector must build the graph a detector fed the unsplit rows
// builds, sweep its groups, and serve the model's epoch.
func TestRowSplitServesTheModelEpoch(t *testing.T) {
	found := 0
	for i, cfg := range equivCorpus(t) {
		t.Run(fmt.Sprintf("workload%02d", i), func(t *testing.T) {
			p := deltaEquivParams(cfg)
			clicks := logWorkloads()[i]
			rng := rand.New(rand.NewSource(int64(i)))
			var batches [3][]clicktable.Record
			for _, c := range clicks {
				parts, left := 1, int(c.Clicks)
				if left >= 2 {
					parts = min(2+rng.Intn(2), left)
				}
				for j := range parts {
					n := left
					if j < parts-1 {
						n = 1 + rng.Intn(left-(parts-1-j))
					}
					left -= n
					batches[j] = append(batches[j], clicktable.Record{UserID: c.UserID, ItemID: c.ItemID, Clicks: uint32(n)})
				}
			}
			unsplit, err := New(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			unsplit.AddBatch(clicks)
			r := newOpRun(t, p, Durability{}, nil, false)
			r.d.compactFraction = []float64{1e-9, 1e9, 0}[i%3]
			r.feed(batches[0], false)
			r.feed(batches[1], false)
			r.feed(batches[2], i%2 == 1)
			if !sameGraph(unsplit.Graph(), r.d.Graph()) {
				t.Fatal("the split rows built another graph than the unsplit ones")
			}
			res := r.sweep()
			if want := mustSweep(t, unsplit); !bytes.Equal(groupBytes(want.Groups), groupBytes(res.Groups)) {
				t.Fatalf("the split rows swept %d groups, the unsplit ones %d (serialized forms differ)", len(res.Groups), len(want.Groups))
			}
			found += r.found
		})
	}
	if found == 0 {
		t.Fatal("corpus detected no groups anywhere — the relation held only all-clean sweeps")
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

// logWorkloads are the corpus workloads as click sequences (the attack's
// first half, the background, then its second half), generated once per
// process.
var logWorkloads = sync.OnceValue(func() (out [][]clicktable.Record) {
	for _, cfg := range synth.EquivCorpus() {
		_, bg, phaseA, phaseB := workloadClicks(cfg)
		out = append(out, slices.Concat(phaseA, bg, phaseB))
	}
	return out
})

// FuzzLiveStateEqualsReplayedState drives a durable detector and a
// memory-only twin through a schedule of ops, and after EVERY op also reopens
// a copy of the detector's directory, which must hold its state; the served
// answers are held to the scan oracle like every schedule's. Seeds: one
// schedule per corpus workload.
func FuzzLiveStateEqualsReplayedState(f *testing.F) {
	for i := range synth.EquivCorpus() {
		rng := rand.New(rand.NewSource(int64(i)))
		ops := []byte{opFeed + 3*numOps, opSweep} // the first attack half and most of the background, then the first (full) sweep
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
