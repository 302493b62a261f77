package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/synth"
)

func smallParams() core.Params {
	p := core.DefaultParams()
	p.THot = 400
	return p
}

// splitDataset splits a synthetic dataset into the background table and the
// attack records (rows from injected attacker IDs).
func splitDataset(ds *synth.Dataset) (background *clicktable.Table, attack []clicktable.Record) {
	background = clicktable.New(ds.Table.Len())
	ds.Table.Each(func(r clicktable.Record) bool {
		if int(r.UserID) >= ds.NumNormalUsers {
			attack = append(attack, r)
		} else {
			background.AppendRecord(r)
		}
		return true
	})
	return background, attack
}

func TestNewValidatesParams(t *testing.T) {
	if _, err := New(nil, core.Params{}); err == nil {
		t.Error("expected params error")
	}
}

// resultBytes serializes what identification leaves on a result — the
// groups with their scores and statistics, and both rankings — for
// byte-level comparison.
func resultBytes(t *testing.T, res *detect.Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Groups                   []detect.Group
		RankedUsers, RankedItems []detect.Scored
	}{res.Groups, res.RankedUsers, res.RankedItems})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decisionEvents returns an audit trail's prune.remove and screen.drop
// events with seq cut, sorted: the per-vertex decisions, independent of the
// order the pool emitted them in.
func decisionEvents(t *testing.T, trail *bytes.Buffer) []string {
	t.Helper()
	var out []string
	for _, line := range bytes.Split(bytes.TrimRight(trail.Bytes(), "\n"), []byte("\n")) {
		// Every event opens with its seq: {"seq":N,"type":"…",…}.
		_, rest, ok := bytes.Cut(line, []byte(","))
		if !ok || !bytes.HasPrefix(line, []byte(`{"seq":`)) || !json.Valid(line) {
			t.Fatalf("audit line is not a sequenced JSON event:\n%s", line)
		}
		for _, typ := range []string{obs.EventPruneRemove, obs.EventScreenDrop} {
			if bytes.HasPrefix(rest, []byte(`"type":"`+typ+`"`)) {
				out = append(out, string(rest))
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestFirstDetectIsFull: the first sweep after New or a cold Open is the
// batch detection. Over the equivalence corpus at one and four workers,
// with an audit sink attached, it returns exactly what an audited
// core.Detector run on the same graph returns — groups with scores and
// statistics, and both rankings — and makes the same prune.remove and
// screen.drop decisions. On SmallConfig it returns what FullDetectContext
// returns and keeps the detection quality floor: F1 ≥ 0.8 against the
// ground truth.
func TestFirstDetectIsFull(t *testing.T) {
	t.Run("SmallConfig/quality", func(t *testing.T) {
		ds := synth.MustGenerate(synth.SmallConfig())
		d, err := New(ds.Table, smallParams())
		if err != nil {
			t.Fatal(err)
		}
		res := mustSweep(t, d)
		full, err := fullDetect(d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resultBytes(t, full), resultBytes(t, res)) {
			t.Fatalf("first sweep diverged from FullDetectContext: %d groups, want %d", len(res.Groups), len(full.Groups))
		}
		if ev := metrics.Evaluate(res, ds.Truth); ev.F1 < 0.8 {
			t.Errorf("first detection F1 = %v, want ≥ 0.8", ev.F1)
		}
	})

	var groups, decisions int
	for i, cfg := range synth.EquivCorpus() {
		ds := synth.MustGenerate(cfg)
		var all []clicktable.Record
		ds.Table.Each(func(r clicktable.Record) bool {
			all = append(all, r)
			return true
		})
		for _, workers := range []int{1, 4} {
			for _, after := range []string{"New", "Open"} {
				t.Run(fmt.Sprintf("workload%02d/workers%d/%s", i, workers, after), func(t *testing.T) {
					p := deltaEquivParams(cfg)
					p.Workers = workers
					var d *Detector
					var err error
					if after == "New" {
						if d, err = New(ds.Table, p); err != nil {
							t.Fatal(err)
						}
					} else {
						var info *RecoveryInfo
						if d, info, err = Open(Durability{Dir: t.TempDir()}, p, nil); err != nil {
							t.Fatal(err)
						}
						defer d.Close()
						if !info.ColdStart {
							t.Fatalf("Open of an empty directory recovered state: %+v", info)
						}
						d.AddBatch(all)
					}

					o := obs.NewObserver("stream")
					var trail bytes.Buffer
					o.Events = obs.NewEventSink(&trail, 0)
					d.Obs = o
					res := mustSweep(t, d)
					d.Obs = nil
					if got := o.Counter("stream.sweeps.full").Value(); got != 1 {
						t.Fatalf("stream.sweeps.full = %d, want 1", got)
					}
					ro := obs.NewObserver("core")
					var refTrail bytes.Buffer
					ro.Events = obs.NewEventSink(&refTrail, 0)
					ref, err := (&core.Detector{Params: p, Obs: ro}).DetectContext(context.Background(), d.Graph())
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(resultBytes(t, ref), resultBytes(t, res)) {
						t.Fatalf("first sweep diverged from the batch detection: %d groups, want %d", len(res.Groups), len(ref.Groups))
					}
					got, want := decisionEvents(t, &trail), decisionEvents(t, &refTrail)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("first sweep made %d prune/screen decisions, the audited detection %d (or they differ)", len(got), len(want))
					}
					groups += len(res.Groups)
					decisions += len(got)
				})
			}
		}
	}
	if groups == 0 || decisions == 0 {
		t.Fatalf("the corpus found %d groups and %d decisions; the comparison is vacuous", groups, decisions)
	}
}

// TestScopeGaugeTracksEverySweep: stream.sweep.scope_users describes the
// sweep that just ran — every live user for a full sweep, the ball's users
// for a seeded incremental sweep, zero for an incremental sweep without
// seeds — never a previous sweep's ball.
func TestScopeGaugeTracksEverySweep(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	background, attack := splitDataset(ds)
	d, err := New(background, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver("stream")
	d.Obs = o
	scope := func(label string, want int64) {
		t.Helper()
		if got := o.Gauge("stream.sweep.scope_users").Value(); got != want {
			t.Fatalf("%s: stream.sweep.scope_users = %d, want %d", label, got, want)
		}
	}

	mustSweep(t, d)
	scope("full sweep", int64(d.Graph().LiveUsers()))
	d.AddBatch(attack)
	mustSweep(t, d)
	ball := o.Gauge("stream.sweep.scope_users").Value()
	if ball <= 0 || ball >= int64(d.Graph().LiveUsers()) {
		t.Fatalf("seeded sweep scoped %d of %d users, want a proper ball", ball, d.Graph().LiveUsers())
	}
	mustSweep(t, d)
	scope("sweep with nothing dirty", 0)
}

func TestIncrementalCatchesStreamedAttack(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	background, attack := splitDataset(ds)
	r := newOpRun(t, smallParams(), Durability{}, background, false)
	if res := r.sweep(); len(res.Groups) != 0 { // baseline sweep over clean traffic
		t.Fatalf("clean traffic produced %d groups", len(res.Groups))
	}
	// Stream the attack, then re-detect incrementally.
	r.feed(attack, false)
	res := r.sweep()
	ev := metrics.Evaluate(res, ds.Truth)
	t.Logf("incremental after attack: %v (elapsed %v)", ev, res.Elapsed)
	if ev.Recall < 0.9 || ev.Precision < 0.9 {
		t.Errorf("incremental detection = %v, want ≥ 0.9 / ≥ 0.9", ev)
	}
}

func TestIncrementalMatchesFullDetection(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	background, attack := splitDataset(ds)
	r := newOpRun(t, smallParams(), Durability{}, background, false)
	r.sweep()
	// Stream the attack in three chunks with a detection after each.
	third := len(attack) / 3
	var inc metrics.Eval
	for _, chunk := range [][]clicktable.Record{attack[:third], attack[third : 2*third], attack[2*third:]} {
		r.feed(chunk, false)
		inc = metrics.Evaluate(r.sweep(), ds.Truth)
	}
	fe := metrics.Evaluate(r.refresh(), ds.Truth)
	t.Logf("incremental: %v\nfull:        %v", inc, fe)
	if inc.F1 < fe.F1-0.05 {
		t.Errorf("incremental F1 %v materially below full %v", inc.F1, fe.F1)
	}
}

func TestCachedGroupsSurviveQuietStream(t *testing.T) {
	r := newOpRun(t, smallParams(), Durability{}, synth.MustGenerate(synth.SmallConfig()).Table, false)
	first := r.sweep()
	// No new events: detection must return the cached groups.
	if second := r.sweep(); len(second.Groups) != len(first.Groups) {
		t.Errorf("quiet re-detection changed groups: %d → %d", len(first.Groups), len(second.Groups))
	}
}

func TestRescreeningDropsGroupWhenTargetGoesHot(t *testing.T) {
	// Build an attack whose target then organically gains enough clicks to
	// cross T_hot; re-screening must stop reporting it as a target.
	p := core.DefaultParams()
	p.THot = 500
	p.K1, p.K2 = 3, 2

	tbl := clicktable.New(0)
	// Attack: users 0..3 hammer items 0 and 1.
	for u := uint32(0); u < 4; u++ {
		tbl.Append(u, 0, 14)
		tbl.Append(u, 1, 14)
	}
	r := newOpRun(t, p, Durability{}, tbl, false)
	if res := r.sweep(); len(res.Groups) != 1 {
		t.Fatalf("initial detection found %d groups, want 1", len(res.Groups))
	}

	// Item 0 and item 1 go viral: hundreds of organic users.
	var viral []clicktable.Record
	for u := uint32(100); u < 700; u++ {
		viral = append(viral, clicktable.Record{UserID: u, ItemID: 0, Clicks: 1}, clicktable.Record{UserID: u, ItemID: 1, Clicks: 1})
	}
	r.feed(viral, true)
	for _, grp := range r.sweep().Groups {
		for _, v := range grp.Items {
			if v == 0 || v == 1 {
				t.Errorf("item %d is now hot but still reported as target", v)
			}
		}
	}
}

func TestZeroClickEventIgnored(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClick(1, 1, 0)
	if d.Events() != 0 {
		t.Error("zero-click event counted")
	}
}

func TestGraphReflectsStream(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	d.AddClick(0, 0, 3)
	d.AddClick(0, 0, 2)
	g := d.Graph()
	if g.Weight(0, 0) != 5 {
		t.Errorf("Weight = %d, want 5 (aggregated)", g.Weight(0, 0))
	}
}

func TestStreamDetectorEmptyStart(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if res := mustSweep(t, d); len(res.Groups) != 0 {
		t.Errorf("empty stream produced groups")
	}
}

// TestStreamObserver verifies sweep-type accounting on the incremental
// path: first sweep is full, later sweeps are incremental, and both are
// recorded distinctly.
func TestStreamObserver(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	d, err := New(ds.Table, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver("stream")
	d.Obs = o
	mustSweep(t, d)
	d.AddClick(uint32(ds.NumNormalUsers-1), uint32(ds.NumNormalItems-1), 1)
	mustSweep(t, d)

	if got := o.Counter("stream.sweeps.full").Value(); got != 1 {
		t.Errorf("stream.sweeps.full = %d, want 1", got)
	}
	if got := o.Counter("stream.sweeps.incremental").Value(); got != 1 {
		t.Errorf("stream.sweeps.incremental = %d, want 1", got)
	}
	if got := o.Counter("stream.events").Value(); got != 1 {
		t.Errorf("stream.events = %d, want 1", got)
	}

	o.Trace.Finish()
	e := o.Trace.Export()
	var sweeps int
	for _, c := range e.Children {
		if c.Name == "stream.sweep" {
			sweeps++
		}
	}
	if sweeps != 2 {
		t.Errorf("trace has %d stream.sweep spans, want 2", sweeps)
	}
}
