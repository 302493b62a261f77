package fakeclick

import (
	"testing"

	"repro/internal/clicktable"
)

func TestStreamDetectorCatchesStreamedAttack(t *testing.T) {
	g, ds := syntheticGraph(t)

	// Warm-start from the background traffic only.
	background := NewGraph()
	var attack []clicktable.Record
	ds.Table.Each(func(r clicktable.Record) bool {
		if int(r.UserID) >= ds.NumNormalUsers {
			attack = append(attack, r)
		} else {
			background.AddClicks(r.UserID, r.ItemID, r.Clicks)
		}
		return true
	})

	sd, err := NewStreamDetector(background, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sd.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 0 {
		t.Fatalf("clean traffic produced %d groups", len(rep.Groups))
	}

	for _, r := range attack {
		sd.AddClicks(r.UserID, r.ItemID, r.Clicks)
	}
	rep, err = sd.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) == 0 {
		t.Fatal("streamed attack not detected")
	}
	tp := 0
	for _, u := range rep.Users {
		if ds.Truth.Users[u] {
			tp++
		}
	}
	if prec := float64(tp) / float64(len(rep.Users)); prec < 0.9 {
		t.Errorf("stream precision = %v, want ≥ 0.9", prec)
	}
	if len(rep.RankedUsers) == 0 {
		t.Error("no ranked users in stream report")
	}
	_ = g // the unsplit graph is only used to derive the dataset
}

func TestStreamDetectorFullSweepAgrees(t *testing.T) {
	g, _ := syntheticGraph(t)
	sd, err := NewStreamDetector(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := sd.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	full, err := sd.FullSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Groups) != len(full.Groups) {
		t.Errorf("first sweep %d groups, full sweep %d", len(inc.Groups), len(full.Groups))
	}
}

// TestStreamReportsCarryThresholdsAndBatchEvidence: on one graph and config
// a Sweep report, a FullSweep report and a batch Detect report state the
// same, non-zero thresholds, and Explain renders every group from a stream
// report exactly as from the batch report.
func TestStreamReportsCarryThresholdsAndBatchEvidence(t *testing.T) {
	g, _ := syntheticGraph(t)
	cfg := smallConfig()
	batch, err := Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch.THot == 0 || batch.TClick == 0 || len(batch.Groups) == 0 {
		t.Fatalf("batch report: T_hot=%d T_click=%d groups=%d", batch.THot, batch.TClick, len(batch.Groups))
	}
	sd, err := NewStreamDetector(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sweep func() (*Report, error)
	}{{"Sweep", sd.Sweep}, {"FullSweep", sd.FullSweep}} {
		rep, err := tc.sweep()
		if err != nil {
			t.Fatal(err)
		}
		if rep.THot != batch.THot || rep.TClick != batch.TClick {
			t.Errorf("%s report has T_hot=%d T_click=%d, batch Detect T_hot=%d T_click=%d",
				tc.name, rep.THot, rep.TClick, batch.THot, batch.TClick)
		}
		if len(rep.Groups) != len(batch.Groups) {
			t.Fatalf("%s found %d groups, batch Detect %d", tc.name, len(rep.Groups), len(batch.Groups))
		}
		for i := range batch.Groups {
			got, err := Explain(g, rep, i)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Explain(g, batch, i)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s: Explain of group %d differs from the batch report's:\n%s\nwant\n%s", tc.name, i, got, want)
			}
		}
	}
}

func TestStreamDetectorEmptyStart(t *testing.T) {
	cfg := smallConfig()
	sd, err := NewStreamDetector(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sd.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 0 {
		t.Errorf("empty stream produced groups")
	}
}

func TestStreamDetectorValidatesConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Alpha = 7
	if _, err := NewStreamDetector(nil, cfg); err == nil {
		t.Error("expected config error")
	}
}

// TestStreamDetectorDurableRecovery exercises the facade's durable mode:
// stream an attack into a detector backed by Config.Durability, abandon it
// without Close (a crash), reopen the same directory, and require the
// recovered detector to report the same groups as the dead one did.
func TestStreamDetectorDurableRecovery(t *testing.T) {
	_, ds := syntheticGraph(t)
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.Durability = &StreamDurability{Dir: dir, SnapshotEvery: 500}

	if _, err := NewStreamDetector(NewGraph(), cfg); err == nil {
		t.Fatal("durable detector accepted a warm-start graph")
	}
	noThresholds := cfg
	noThresholds.THot = 0
	if _, err := NewStreamDetector(nil, noThresholds); err == nil {
		t.Fatal("durable detector accepted derived thresholds")
	}

	sd, err := NewStreamDetector(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := sd.Recovery(); rec == nil || !rec.ColdStart {
		t.Fatalf("fresh directory recovery = %+v, want cold start", rec)
	}
	ds.Table.Each(func(r clicktable.Record) bool {
		sd.AddClicks(r.UserID, r.ItemID, r.Clicks)
		return true
	})
	rep, err := sd.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) == 0 {
		t.Fatal("streamed attack not detected before the crash")
	}
	if err := sd.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	// Crash: the detector is abandoned, sd.Close() never runs.

	sd2, err := NewStreamDetector(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sd2.Close()
	rec := sd2.Recovery()
	if rec == nil || rec.ColdStart {
		t.Fatalf("recovery = %+v, want warm", rec)
	}
	if rec.SnapshotClock == 0 && rec.ReplayedRecords == 0 {
		t.Fatalf("recovery reconstructed nothing: %+v", rec)
	}
	rep2, err := sd2.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Groups) != len(rep.Groups) {
		t.Fatalf("recovered sweep found %d groups, pre-crash found %d", len(rep2.Groups), len(rep.Groups))
	}
	for i := range rep.Groups {
		if rep2.Groups[i].Score != rep.Groups[i].Score ||
			len(rep2.Groups[i].Users) != len(rep.Groups[i].Users) ||
			len(rep2.Groups[i].Items) != len(rep.Groups[i].Items) {
			t.Fatalf("group %d diverged after recovery:\n pre-crash %+v\n recovered %+v",
				i, rep.Groups[i], rep2.Groups[i])
		}
	}
	if err := sd2.Snapshot(); err != nil {
		t.Fatal(err)
	}
}
