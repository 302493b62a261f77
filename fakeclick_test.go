package fakeclick

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/clicktable"
	"repro/internal/synth"
)

// syntheticGraph loads the small synthetic dataset into a facade Graph and
// returns it along with the ground truth.
func syntheticGraph(t *testing.T) (*Graph, *synth.Dataset) {
	t.Helper()
	ds := synth.MustGenerate(synth.SmallConfig())
	g := NewGraph()
	ds.Table.Each(func(r clicktable.Record) bool {
		g.AddClicks(r.UserID, r.ItemID, r.Clicks)
		return true
	})
	return g, ds
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.THot = 400
	cfg.TClick = 12
	return cfg
}

func TestGraphAccounting(t *testing.T) {
	g := NewGraph()
	g.AddClicks(0, 0, 3)
	g.AddClicks(0, 0, 2)
	g.AddClicks(1, 5, 1)
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.TotalClicks() != 6 {
		t.Errorf("TotalClicks = %d, want 6", g.TotalClicks())
	}
	if g.NumUsers() != 2 || g.NumItems() != 6 {
		t.Errorf("dims = (%d,%d), want (2,6)", g.NumUsers(), g.NumItems())
	}
	// Mutation after build rebuilds lazily.
	g.AddClicks(2, 2, 1)
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges after rebuild = %d, want 3", g.NumEdges())
	}
}

func TestLoadCSV(t *testing.T) {
	g := NewGraph()
	err := g.LoadCSV(strings.NewReader("user_id,item_id,click\n1,2,3\n4,5,6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.TotalClicks() != 9 {
		t.Errorf("loaded %d edges / %d clicks", g.NumEdges(), g.TotalClicks())
	}
	if err := g.LoadCSV(strings.NewReader("bad")); err == nil {
		t.Error("expected CSV error")
	}
}

func TestDetectFindsInjectedAttack(t *testing.T) {
	g, ds := syntheticGraph(t)
	rep, err := Detect(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) == 0 {
		t.Fatal("no groups detected")
	}
	tp := 0
	for _, u := range rep.Users {
		if ds.Truth.Users[u] {
			tp++
		}
	}
	if prec := float64(tp) / float64(len(rep.Users)); prec < 0.8 {
		t.Errorf("user precision = %v, want ≥ 0.8", prec)
	}
	if rep.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
	if rep.THot != 400 || rep.TClick != 12 {
		t.Errorf("thresholds = (%d,%d), want (400,12)", rep.THot, rep.TClick)
	}
}

func TestDetectDerivesThresholds(t *testing.T) {
	g, _ := syntheticGraph(t)
	rep, err := Detect(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.THot == 0 || rep.TClick == 0 {
		t.Errorf("derived thresholds = (%d,%d), want nonzero", rep.THot, rep.TClick)
	}
}

func TestDetectValidatesConfig(t *testing.T) {
	g, _ := syntheticGraph(t)
	cfg := smallConfig()
	cfg.K1 = 0
	if _, err := Detect(g, cfg); err == nil {
		t.Error("expected validation error")
	}
}

func TestSkipScreeningRaisesOutput(t *testing.T) {
	g, _ := syntheticGraph(t)
	full, err := Detect(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.SkipScreening = true
	raw, err := Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Users)+len(raw.Items) < len(full.Users)+len(full.Items) {
		t.Errorf("raw output (%d) smaller than screened (%d)",
			len(raw.Users)+len(raw.Items), len(full.Users)+len(full.Items))
	}
}

func TestSeededDetection(t *testing.T) {
	g, ds := syntheticGraph(t)
	cfg := smallConfig()
	cfg.SeedUsers = []uint32{ds.Groups[0].Attackers[0]}
	rep, err := Detect(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint32]bool{}
	for _, u := range rep.Users {
		found[u] = true
	}
	n := 0
	for _, a := range ds.Groups[0].Attackers {
		if found[a] {
			n++
		}
	}
	if n < len(ds.Groups[0].Attackers)/2 {
		t.Errorf("seeded run found %d/%d seeded-group attackers", n, len(ds.Groups[0].Attackers))
	}
}

func TestTopKRanking(t *testing.T) {
	g, ds := syntheticGraph(t)
	rep, err := Detect(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	top := rep.TopUsers(10)
	if len(top) != 10 {
		t.Fatalf("TopUsers(10) returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Error("TopUsers not sorted by score")
		}
	}
	for _, n := range top {
		if !ds.Truth.Users[n.ID] {
			t.Errorf("top-ranked user %d is not a labeled attacker", n.ID)
		}
	}
	if rep.TopItems(0) != nil {
		t.Error("TopItems(0) should be nil")
	}
}

func TestDetectWithExpectation(t *testing.T) {
	g, _ := syntheticGraph(t)
	base, err := Detect(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := len(base.Users) + len(base.Items) + 5
	rep, err := DetectWithExpectation(g, smallConfig(), want, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Users)+len(rep.Items) < len(base.Users)+len(base.Items) {
		t.Error("feedback loop shrank the output")
	}
}

func TestRecommendAndI2IScore(t *testing.T) {
	g := NewGraph()
	// Anchor 0 co-clicked with item 1 (heavily) and item 2 (lightly).
	g.AddClicks(0, 0, 1)
	g.AddClicks(0, 1, 9)
	g.AddClicks(1, 0, 1)
	g.AddClicks(1, 2, 1)
	recs := Recommend(g, 0, 1)
	if len(recs) != 1 || recs[0] != 1 {
		t.Errorf("Recommend = %v, want [1]", recs)
	}
	if s := I2IScore(g, 0, 1); s != 0.9 {
		t.Errorf("I2IScore = %v, want 0.9", s)
	}
	if s := I2IScore(g, 0, 99); s != 0 {
		t.Errorf("I2IScore missing pair = %v, want 0", s)
	}
}

func TestCleanClicksRemovesAttackTraffic(t *testing.T) {
	g, ds := syntheticGraph(t)
	rep, err := Detect(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cleaned := CleanClicks(g, rep)
	if cleaned.TotalClicks() >= g.TotalClicks() {
		t.Error("cleaning removed nothing")
	}
	// The attack's I2I manipulation must collapse: a target item's score
	// against its ridden hot item drops after cleaning.
	grp := ds.Groups[0]
	anchor, target := grp.HotItems[0], grp.Targets[0]
	before := I2IScore(g, anchor, target)
	after := I2IScore(cleaned, anchor, target)
	if after >= before {
		t.Errorf("I2I score did not drop after cleaning: %v → %v", before, after)
	}
}

func TestReportSummary(t *testing.T) {
	g, _ := syntheticGraph(t)
	rep, err := Detect(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, want := range []string{"attack group", "suspicious accounts", "density"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
	if lines := strings.Count(s, "\n"); lines != 1+len(rep.Groups) {
		t.Errorf("Summary has %d lines, want %d", lines, 1+len(rep.Groups))
	}
}

func TestExplainGroup(t *testing.T) {
	g, _ := syntheticGraph(t)
	rep, err := Detect(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) == 0 {
		t.Fatal("no groups")
	}
	text, err := Explain(g, rep, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"density", "accounts", "items"} {
		if !strings.Contains(text, want) {
			t.Errorf("explanation missing %q", want)
		}
	}
	if _, err := Explain(g, rep, len(rep.Groups)); err == nil {
		t.Error("out-of-range group accepted")
	}
	if _, err := Explain(g, rep, -1); err == nil {
		t.Error("negative group accepted")
	}
}

func TestCSVRoundTripThroughFacade(t *testing.T) {
	g, ds := syntheticGraph(t)
	// Export the click table via the clicktable package and reload through
	// the facade: edge accounting must survive.
	var buf bytes.Buffer
	if err := clicktable.WriteCSV(&buf, ds.Table); err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph()
	if err := g2.LoadCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.TotalClicks() != g.TotalClicks() {
		t.Errorf("round trip: %d/%d edges, %d/%d clicks",
			g2.NumEdges(), g.NumEdges(), g2.TotalClicks(), g.TotalClicks())
	}
}
