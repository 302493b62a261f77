package stream

import (
	"testing"

	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/metrics"
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

func TestFirstDetectIsFull(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	d, err := New(ds.Table, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	full, err := fullDetect(d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Groups), len(full.Groups); got != want {
		t.Errorf("first Detect found %d groups, full detection %d", got, want)
	}
	ev := metrics.Evaluate(res, ds.Truth)
	if ev.F1 < 0.8 {
		t.Errorf("first detection F1 = %v, want ≥ 0.8", ev.F1)
	}
}

func TestIncrementalCatchesStreamedAttack(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	background, attack := splitDataset(ds)

	d, err := New(background, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	// Baseline sweep over clean traffic.
	res, err := sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Fatalf("clean traffic produced %d groups", len(res.Groups))
	}

	// Stream the attack, then re-detect incrementally.
	d.AddBatch(attack)
	res, err = sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	ev := metrics.Evaluate(res, ds.Truth)
	t.Logf("incremental after attack: %v (elapsed %v)", ev, res.Elapsed)
	if ev.Recall < 0.9 || ev.Precision < 0.9 {
		t.Errorf("incremental detection = %v, want ≥ 0.9 / ≥ 0.9", ev)
	}
}

func TestIncrementalMatchesFullDetection(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	background, attack := splitDataset(ds)

	d, err := New(background, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep(d); err != nil {
		t.Fatal(err)
	}
	// Stream the attack in three chunks with a detection after each.
	third := len(attack) / 3
	chunks := [][]clicktable.Record{attack[:third], attack[third : 2*third], attack[2*third:]}
	var inc *metrics.Eval
	for _, chunk := range chunks {
		d.AddBatch(chunk)
		res, err := sweep(d)
		if err != nil {
			t.Fatal(err)
		}
		e := metrics.Evaluate(res, ds.Truth)
		inc = &e
	}
	full, err := fullDetect(d)
	if err != nil {
		t.Fatal(err)
	}
	fe := metrics.Evaluate(full, ds.Truth)
	t.Logf("incremental: %v\nfull:        %v", *inc, fe)
	if inc.F1 < fe.F1-0.05 {
		t.Errorf("incremental F1 %v materially below full %v", inc.F1, fe.F1)
	}
}

func TestCachedGroupsSurviveQuietStream(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	d, err := New(ds.Table, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	// No new events: detection must return the cached groups.
	second, err := sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Groups) != len(first.Groups) {
		t.Errorf("quiet re-detection changed groups: %d → %d",
			len(first.Groups), len(second.Groups))
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
	d, err := New(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("initial detection found %d groups, want 1", len(res.Groups))
	}

	// Item 0 and item 1 go viral: hundreds of organic users.
	for u := uint32(100); u < 700; u++ {
		d.AddClick(u, 0, 1)
		d.AddClick(u, 1, 1)
	}
	res, err = sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, grp := range res.Groups {
		for _, v := range grp.Items {
			if v == 0 || v == 1 {
				t.Errorf("item %d is now hot but still reported as target", v)
			}
		}
	}
}

func TestResetForcesFullDetection(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	d, err := New(ds.Table, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep(d); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	res, err := sweep(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Error("post-reset detection found nothing")
	}
}

func TestRetune(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	d, err := New(ds.Table, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Retune(core.Params{}); err == nil {
		t.Error("Retune accepted invalid params")
	}
	p := smallParams()
	p.TClick = 10
	if err := d.Retune(p); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep(d); err != nil {
		t.Fatal(err)
	}
	if d.Detections() != 1 {
		t.Errorf("Detections = %d, want 1", d.Detections())
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
