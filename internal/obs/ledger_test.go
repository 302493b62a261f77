package obs

import (
	"encoding/json"
	"testing"
)

// TestLedgerBounded fills a small ledger past capacity and checks the ring
// keeps only the newest entries, oldest first, with monotone run numbers.
func TestLedgerBounded(t *testing.T) {
	l := NewLedger(3)
	for i := 0; i < 5; i++ {
		l.Record(RunSummary{Root: "ricd.detect", Groups: i})
	}
	if l.Len() != 5 {
		t.Errorf("Len = %d, want 5", l.Len())
	}
	runs := l.Runs()
	if len(runs) != 3 {
		t.Fatalf("retained %d runs, want 3", len(runs))
	}
	for i, rs := range runs {
		if want := int64(i + 3); rs.Seq != want {
			t.Errorf("runs[%d].Seq = %d, want %d", i, rs.Seq, want)
		}
		if want := i + 2; rs.Groups != want {
			t.Errorf("runs[%d].Groups = %d, want %d", i, rs.Groups, want)
		}
	}

	data, err := l.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back []RunSummary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("ledger JSON invalid: %v", err)
	}
	if len(back) != 3 {
		t.Errorf("JSON holds %d runs, want 3", len(back))
	}
}

// TestStagesOf converts a span tree into the ledger's stage timings.
func TestStagesOf(t *testing.T) {
	e := &SpanExport{
		Name:       "ricd.detect",
		DurationNS: 100,
		Children: []*SpanExport{
			{Name: "detection", DurationNS: 60, Children: []*SpanExport{{Name: "prune", DurationNS: 50}}},
			{Name: "screening", DurationNS: 30},
			{Name: "identification", DurationNS: 5},
		},
	}
	stages := StagesOf(e)
	if len(stages) != 3 || stages[0].Name != "detection" || stages[2].Name != "identification" {
		t.Fatalf("stages = %+v", stages)
	}
	if StagesOf(nil) != nil || StagesOf(&SpanExport{Name: "x"}) != nil {
		t.Error("empty trees must yield nil stage lists")
	}
}

// TestCounterDelta checks per-run counter attribution.
func TestCounterDelta(t *testing.T) {
	before := map[string]int64{"a": 2, "b": 5}
	after := map[string]int64{"a": 2, "b": 9, "c": 1}
	d := CounterDelta(before, after)
	if len(d) != 2 || d["b"] != 4 || d["c"] != 1 {
		t.Errorf("delta = %v", d)
	}
	if CounterDelta(after, after) != nil {
		t.Error("no-change delta must be nil")
	}
}
