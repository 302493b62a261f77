package riskcontrol

import (
	"testing"

	"repro/internal/bipartite"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/synth"
)

func TestRulesValidate(t *testing.T) {
	if err := DefaultRules().Validate(); err != nil {
		t.Fatalf("default rules invalid: %v", err)
	}
	if err := (Rules{}).Validate(); err == nil {
		t.Error("all-disabled rules accepted")
	}
	if err := (Rules{MaxItemShare: 1.5}).Validate(); err == nil {
		t.Error("share > 1 accepted")
	}
}

func TestPairClickRule(t *testing.T) {
	b := bipartite.NewBuilder(3, 3)
	b.Add(0, 0, 60) // excessive
	b.Add(1, 1, 10) // fine
	g := b.Build()
	d := &Detector{Rules: Rules{MaxPairClicks: 50}}
	res, err := d.Detect(g)
	if err != nil {
		t.Fatal(err)
	}
	users := res.Users()
	if len(users) != 1 || users[0] != 0 {
		t.Errorf("flagged users = %v, want [0]", users)
	}
	items := res.Items()
	if len(items) != 1 || items[0] != 0 {
		t.Errorf("flagged items = %v, want [0]", items)
	}
}

func TestUserVolumeRule(t *testing.T) {
	b := bipartite.NewBuilder(2, 40)
	for v := bipartite.NodeID(0); v < 40; v++ {
		b.Add(0, v, 20) // 800 total: bot-like
		b.Add(1, v, 2)  // 80 total: fine
	}
	g := b.Build()
	d := &Detector{Rules: Rules{MaxUserClicks: 600}}
	res, err := d.Detect(g)
	if err != nil {
		t.Fatal(err)
	}
	users := res.Users()
	if len(users) != 1 || users[0] != 0 {
		t.Errorf("flagged users = %v, want [0]", users)
	}
}

func TestItemShareRule(t *testing.T) {
	b := bipartite.NewBuilder(3, 1)
	b.Add(0, 0, 45) // 45 of 60 = 75% share
	b.Add(1, 0, 10)
	b.Add(2, 0, 5)
	g := b.Build()
	d := &Detector{Rules: Rules{MaxItemShare: 0.4}}
	res, err := d.Detect(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Users()) != 1 || res.Users()[0] != 0 {
		t.Errorf("flagged users = %v, want [0]", res.Users())
	}
}

func TestItemShareRuleIgnoresSoleClicker(t *testing.T) {
	// A brand-new item with a single organic clicker trivially has 100%
	// share; the rule must not flag it.
	b := bipartite.NewBuilder(1, 1)
	b.Add(0, 0, 3)
	d := &Detector{Rules: Rules{MaxItemShare: 0.4}}
	res, err := d.Detect(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumNodes() != 0 {
		t.Errorf("sole clicker flagged: %v", res.Users())
	}
}

// TestBudgetedAttackEvadesRules is the package's reason to exist: the
// paper's crowd workers calibrate their click budget against exactly these
// rules, so the injected attack must slip under them almost entirely.
func TestBudgetedAttackEvadesRules(t *testing.T) {
	ds := synth.MustGenerate(synth.SmallConfig())
	d := &Detector{Rules: DefaultRules()}
	res, err := d.Detect(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ev := metrics.Evaluate(res, ds.Truth)
	t.Logf("risk control vs attack: %v", ev)
	if ev.Recall > 0.10 {
		t.Errorf("rules caught %.0f%% of the budgeted attack; the attack model "+
			"is supposed to evade them", 100*ev.Recall)
	}
}

func TestDetectorInterface(t *testing.T) {
	var _ detect.Detector = (*Detector)(nil)
	if (&Detector{}).Name() != "RiskControl" {
		t.Error("bad name")
	}
}

func TestInvalidRulesRejected(t *testing.T) {
	d := &Detector{}
	if _, err := d.Detect(bipartite.NewGraph(1, 1)); err == nil {
		t.Error("expected validation error")
	}
}
