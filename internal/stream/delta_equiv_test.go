package stream

import (
	"testing"

	"repro/internal/clicktable"
	"repro/internal/obs"
)

// The patched ≡ rebuilt graph equivalence itself is
// TestDeltaEquivalenceGoldenWorkloads (ops_test.go); these tests pin the
// build policy's counters and arithmetic.

// TestGraphBuildModeCounters pins the observable split between the two
// build branches: a never-compacting detector rebuilds once (the first
// build) and patches afterwards.
func TestGraphBuildModeCounters(t *testing.T) {
	feed := func(d *Detector) {
		for round := 0; round < 3; round++ {
			for i := 0; i < 50; i++ {
				d.AddClick(uint32(i), uint32(i%10), uint32(1+round))
			}
			d.Graph()
		}
	}

	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	d.compactFraction = 1e9
	d.Obs = obs.NewObserver("stream")
	feed(d)
	counters := d.Obs.Metrics.Counters()
	if got := counters["stream.graph.rebuild"]; got != 1 {
		t.Errorf("never-compact: %d rebuilds, want 1", got)
	}
	if got := counters["stream.graph.patch"]; got != 2 {
		t.Errorf("never-compact: %d patches, want 2", got)
	}
	if got := counters["stream.graph.delta_rows"]; got != 150 {
		t.Errorf("delta_rows = %d, want 150", got)
	}
}

// TestCompactionPolicyTriggers pins the compactFraction policy arithmetic:
// with the base at N rows, a pending tail ≤ frac·N patches and a larger
// one compacts.
func TestCompactionPolicyTriggers(t *testing.T) {
	d, err := New(nil, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	d.compactFraction = 0.5
	d.Obs = obs.NewObserver("stream")
	for i := 0; i < 100; i++ {
		d.AddClick(uint32(i), uint32(i%10), 1)
	}
	d.Graph() // build 1: full rebuild, base = 100 rows

	for i := 0; i < 40; i++ { // tail 40 ≤ 0.5·100 → patch
		d.AddClick(uint32(200+i), uint32(i%10), 1)
	}
	d.Graph()
	counters := d.Obs.Metrics.Counters()
	if counters["stream.graph.patch"] != 1 || counters["stream.graph.rebuild"] != 1 {
		t.Fatalf("after small tail: patch=%d rebuild=%d, want 1/1",
			counters["stream.graph.patch"], counters["stream.graph.rebuild"])
	}

	for i := 0; i < 30; i++ { // tail 70 > 0.5·100 → compact
		d.AddClick(uint32(300+i), uint32(i%10), 1)
	}
	d.Graph()
	counters = d.Obs.Metrics.Counters()
	if counters["stream.graph.patch"] != 1 || counters["stream.graph.rebuild"] != 2 {
		t.Fatalf("after large tail: patch=%d rebuild=%d, want 1/2",
			counters["stream.graph.patch"], counters["stream.graph.rebuild"])
	}
}

// TestEventsCountsLifetimeTotal pins Events' contract, which the driver's
// model checks after every op: the count is the lifetime total of non-zero
// click events, and sweeps do not consume it.
func TestEventsCountsLifetimeTotal(t *testing.T) {
	r := newOpRun(t, smallParams(), Durability{}, nil, false)
	clicks := []clicktable.Record{{UserID: 99, ItemID: 1, Clicks: 0}} // zero-click: dropped, not counted
	for u := range uint32(30) {
		clicks = append(clicks, clicktable.Record{UserID: u, ItemID: 1, Clicks: 2})
	}
	r.feed(clicks, true)
	r.sweep()
	r.feed([]clicktable.Record{{UserID: 1, ItemID: 2, Clicks: 3}, {UserID: 2, ItemID: 2, Clicks: 0}}, false)
	if got := r.d.Events(); got != 31 {
		t.Errorf("Events = %d, want 31", got)
	}
}
